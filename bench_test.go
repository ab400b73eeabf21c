// Benchmarks regenerating every table and figure of the paper's evaluation
// (§V), one benchmark per artifact, plus kernel micro-benchmarks for the
// real compute path. Virtual-time experiments report their simulated
// seconds and GCUPS as custom metrics (sim_s, sim_GCUPS); kernel benchmarks
// report real MCUPS.
//
// Run: go test -bench=. -benchmem
package hybridsw_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	hybridsw "repro"
	"repro/internal/experiments"
	"repro/internal/farrar"
	"repro/internal/score"
	"repro/internal/sw"
)

// reportRun attaches a run's simulated time and GCUPS to the benchmark.
func reportRun(b *testing.B, seconds, gcups float64) {
	b.ReportMetric(seconds, "sim_s")
	b.ReportMetric(gcups, "sim_GCUPS")
}

func BenchmarkTable2_Databases(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.Table2(); tab == nil {
			b.Fatal("no table")
		}
	}
}

func benchSweep(b *testing.B, f func() ([]experiments.Run, interface{ String() string }, error)) {
	runs, _, err := f()
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range runs {
		r := r
		b.Run(fmt.Sprintf("%s/%s", sanitize(r.DB), sanitize(r.Config)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// The sweep above already ran everything once
				// deterministically; re-running per-iteration keeps the
				// benchmark honest about cost.
			}
			reportRun(b, r.Result.Makespan.Seconds(), r.Result.GCUPS())
		})
	}
}

func BenchmarkTable3_SSE(b *testing.B) {
	benchSweep(b, func() ([]experiments.Run, interface{ String() string }, error) {
		runs, tab, err := experiments.Table3()
		return runs, tab, err
	})
}

func BenchmarkTable4_GPU(b *testing.B) {
	benchSweep(b, func() ([]experiments.Run, interface{ String() string }, error) {
		runs, tab, err := experiments.Table4()
		return runs, tab, err
	})
}

func BenchmarkTable5_Hybrid(b *testing.B) {
	benchSweep(b, func() ([]experiments.Run, interface{ String() string }, error) {
		runs, tab, err := experiments.Table5()
		return runs, tab, err
	})
}

func BenchmarkFig5_Walkthrough(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.With.Makespan.Seconds(), "with_s")
			b.ReportMetric(res.Without.Makespan.Seconds(), "without_s")
		}
	}
}

func BenchmarkFig6_Adjustment(b *testing.B) {
	rows, _, err := experiments.Fig6()
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range rows {
		r := r
		b.Run(sanitize(r.Config), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
			}
			b.ReportMetric(r.With, "with_GCUPS")
			b.ReportMetric(r.Without, "without_GCUPS")
			b.ReportMetric(r.GainPercent, "gain_pct")
		})
	}
}

func BenchmarkFig7_Dedicated(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Makespan.Seconds(), "sim_s")
		}
	}
}

func BenchmarkFig8_NonDedicated(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Makespan.Seconds(), "sim_s")
		}
	}
}

func BenchmarkPolicyAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.PolicyAblation(true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOmegaAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.OmegaAblation(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLatencyAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.LatencyAblation(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- real compute-kernel benchmarks ------------------------------------

func randProtein(rng *rand.Rand, n int) []byte {
	const canon = "ACDEFGHIKLMNPQRSTVWY"
	out := make([]byte, n)
	for i := range out {
		out[i] = canon[rng.Intn(len(canon))]
	}
	return out
}

// reportMCUPS converts benchmark cell throughput to millions of cell
// updates per second.
func reportMCUPS(b *testing.B, cellsPerOp int64, elapsed time.Duration) {
	if elapsed <= 0 {
		return
	}
	mcups := float64(cellsPerOp) * float64(b.N) / elapsed.Seconds() / 1e6
	b.ReportMetric(mcups, "MCUPS")
}

// BenchmarkKernelFarrarSWAR8 measures the portable 8-bit tier: the
// 64-bit SWAR kernel (the production one off amd64).
func BenchmarkKernelFarrarSWAR8(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	q := randProtein(rng, 128)
	d := randProtein(rng, 400)
	k, err := farrar.NewKernel(q, score.DefaultProtein())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if _, ok := k.ScoreSWAR8(d); !ok {
			b.Fatal("overflow")
		}
	}
	reportMCUPS(b, int64(len(q))*int64(len(d)), time.Since(start))
}

// BenchmarkKernelFarrarScore measures the striped ladder, Kernel.Score,
// whose 8-bit tier is the AVX2 assembly where the host has AVX2 and the
// SWAR kernel elsewhere. An
// engine's scan reaches it through Kernel.ScoreBatch for the targets the
// inter-sequence lanes leave.
func BenchmarkKernelFarrarScore(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	q := randProtein(rng, 128)
	d := randProtein(rng, 400)
	k, err := farrar.NewKernel(q, score.DefaultProtein())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		k.Score(d)
	}
	reportMCUPS(b, int64(len(q))*int64(len(d)), time.Since(start))
}

// BenchmarkKernelFarrarU8 measures the emulated-ISA oracle on the same
// tier; the gap to KernelFarrarSWAR8 is the SWAR rewrite's payoff.
func BenchmarkKernelFarrarU8(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	q := randProtein(rng, 128)
	d := randProtein(rng, 400)
	k, err := farrar.NewKernel(q, score.DefaultProtein())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if _, ok := k.ScoreU8(d); !ok {
			b.Fatal("overflow")
		}
	}
	reportMCUPS(b, int64(len(q))*int64(len(d)), time.Since(start))
}

func BenchmarkKernelFarrarI16(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	q := randProtein(rng, 128)
	d := randProtein(rng, 400)
	k, _ := farrar.NewKernel(q, score.DefaultProtein())
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if _, ok := k.ScoreI16(d); !ok {
			b.Fatal("overflow")
		}
	}
	reportMCUPS(b, int64(len(q))*int64(len(d)), time.Since(start))
}

func BenchmarkKernelReferenceSW(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	q := randProtein(rng, 128)
	d := randProtein(rng, 400)
	s := score.DefaultProtein()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		sw.Score(q, d, s)
	}
	reportMCUPS(b, int64(len(q))*int64(len(d)), time.Since(start))
}

func BenchmarkKernelTraceback(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	q := randProtein(rng, 200)
	d := randProtein(rng, 200)
	s := score.DefaultProtein()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.Align(q, d, s)
	}
}

func BenchmarkKernelLinearSpace(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	q := randProtein(rng, 200)
	d := randProtein(rng, 200)
	s := score.DefaultProtein()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.AlignLinearSpace(q, d, s)
	}
}

func BenchmarkSearchEndToEnd(b *testing.B) {
	db, err := hybridsw.GenerateDatabase("Ensembl Dog Proteins", 0.0008, 9)
	if err != nil {
		b.Fatal(err)
	}
	queries := hybridsw.GenerateQueries(db, 3, 60, 200, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hybridsw.Search(queries, db, hybridsw.Platform{
			GPUs: 1, SSECores: 1, Policy: "PSS", Adjust: true, TopK: 1,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSearchOneQuery times hybridsw.Search of one query of n residues on
// the serving benchmark's database and platform (bench/README.md: two CPU
// engines, PSS with adjustment, top 10) — the request of its single_query
// (400 aa) and serve_mix (25 aa) workloads without the server around it.
func benchSearchOneQuery(b *testing.B, n int) {
	db, err := hybridsw.GenerateDatabase("UniProtKB/SwissProt", 0.004, 1)
	if err != nil {
		b.Fatal(err)
	}
	queries := hybridsw.GenerateQueries(db, 1, n, n, 2)
	var residues int64
	for _, d := range db {
		residues += int64(d.Len())
	}
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if _, err := hybridsw.Search(queries, db, hybridsw.Platform{
			SSECores: 2, Policy: "PSS", Adjust: true, TopK: 10,
		}); err != nil {
			b.Fatal(err)
		}
	}
	reportMCUPS(b, int64(n)*residues, time.Since(start))
}

func BenchmarkSearchSingleQuery(b *testing.B) { benchSearchOneQuery(b, 400) }

func BenchmarkSearchShortQuery(b *testing.B) { benchSearchOneQuery(b, 25) }

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch r {
		case ' ', '/', '+':
			out = append(out, '_')
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

func BenchmarkFutureWorkScenarios(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.FutureWork(); err != nil {
			b.Fatal(err)
		}
	}
}
