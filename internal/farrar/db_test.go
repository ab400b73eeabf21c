package farrar_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	hybridsw "repro"
	"repro/internal/farrar"
	"repro/internal/sw"
)

// The default scheme (BLOSUM62, gaps 10/2) has bias 4, so the guard-bit
// tiers certify scores below 127-4 and 32767-4.
const (
	ceiling8  = 123
	ceiling16 = 32763
)

var (
	dbOnce sync.Once
	dbSeqs []*hybridsw.Sequence
	dbErr  error
)

// swissProt is the benchmark-shaped database the kernel tests share: the
// SwissProt length profile at 0.004 scale, about 2 150 sequences.
func swissProt(tb testing.TB) []*hybridsw.Sequence {
	tb.Helper()
	dbOnce.Do(func() { dbSeqs, dbErr = hybridsw.GenerateDatabase("UniProtKB/SwissProt", 0.004, 1) })
	if dbErr != nil {
		tb.Fatal(dbErr)
	}
	return dbSeqs
}

// planted returns a query of length n cut from a random window of a
// database sequence, with 10 % of its residues substituted: the serving
// benchmark's query shape, which scores high against its source and low
// against everything else.
func planted(rng *rand.Rand, db []*hybridsw.Sequence, n int) []byte {
	const canon = "ACDEFGHIKLMNPQRSTVWY"
	for {
		src := db[rng.Intn(len(db))].Residues
		if len(src) < n {
			continue
		}
		start := rng.Intn(len(src) - n + 1)
		q := append([]byte(nil), src[start:start+n]...)
		for i := range q {
			if rng.Float64() < 0.1 {
				q[i] = canon[rng.Intn(len(canon))]
			}
		}
		return q
	}
}

// TestPlantedQueriesMatchScalar is the benchmark-shaped differential test:
// planted 100-600 aa queries against the whole database, every certified
// score equal to sw.Score, and each tier certifying exactly the scores
// below its ceiling — the SWAR tiers directly, and every native 8-bit
// path the host runs (SSE2 and AVX2 on an AVX2 host) through its ladder's
// Stats, which the 350 and 600 aa queries' sources push into 16 bits.
func TestPlantedQueriesMatchScalar(t *testing.T) {
	db := swissProt(t)
	rng := rand.New(rand.NewSource(25))
	scheme := hybridsw.DefaultScheme()
	escalated := 0
	for _, n := range []int{100, 350, 600} {
		q := planted(rng, db, n)
		k, err := farrar.NewKernel(q, scheme)
		if err != nil {
			t.Fatal(err)
		}
		paths := farrar.HostPaths(k)
		below8 := int64(0)
		for i, d := range db {
			want := sw.Score(q, d.Residues, scheme)
			if want < ceiling8 {
				below8++
			}
			if sc, ok := k.ScoreSWAR8(d.Residues); ok != (want < ceiling8) || ok && sc != want {
				t.Fatalf("query %d aa, seq %d: 8-bit tier (%d, %v), reference %d", n, i, sc, ok, want)
			}
			if want >= ceiling8 {
				escalated++
				if sc, ok := k.ScoreSWAR16(d.Residues); ok != (want < ceiling16) || ok && sc != want {
					t.Fatalf("query %d aa, seq %d: 16-bit tier (%d, %v), reference %d", n, i, sc, ok, want)
				}
			}
			if got := k.Score(d.Residues); got != want {
				t.Fatalf("query %d aa, seq %d: ladder %d, reference %d", n, i, got, want)
			}
			for path, p := range paths {
				if got := p.Score(d.Residues); got != want {
					t.Fatalf("query %d aa, seq %d: %s ladder %d, reference %d", n, i, path, got, want)
				}
			}
		}
		if st := k.Stats(); st.Scored8 != below8 {
			t.Fatalf("query %d aa: the dispatched 8-bit tier certified %d scores, %d lie below its ceiling", n, st.Scored8, below8)
		}
		for path, p := range paths {
			if st := p.Stats(); st != k.Stats() {
				t.Fatalf("query %d aa: %s ladder stats %+v, dispatched %+v", n, path, st, k.Stats())
			}
		}
	}
	if escalated == 0 {
		t.Fatal("no planted query reached the 8-bit ceiling; the 16-bit tier went untested")
	}
}

// BenchmarkScoreDB times the kernel on the serving benchmark's shape: six
// planted 100-600 aa queries, one op scoring one database sequence, so
// allocs/op is farrar.allocs_per_seq. Kernels are built before the timer.
func BenchmarkScoreDB(b *testing.B) {
	db := swissProt(b)
	rng := rand.New(rand.NewSource(26))
	var kernels []*farrar.Kernel
	for _, n := range []int{100, 200, 300, 400, 500, 600} {
		q := planted(rng, db, n)
		k, err := farrar.NewKernel(q, hybridsw.DefaultScheme())
		if err != nil {
			b.Fatal(err)
		}
		k.Score(q) // a self-alignment escalates: builds every tier's profile and scratch
		kernels = append(kernels, k)
	}
	var cells int64
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		k, d := kernels[i%len(kernels)], db[i/len(kernels)%len(db)].Residues
		k.Score(d)
		cells += k.Cells(d)
	}
	if elapsed := time.Since(start); elapsed > 0 {
		b.ReportMetric(float64(cells)/elapsed.Seconds()/1e6, "MCUPS")
	}
}

// dbRanges cuts db into n contiguous residue-balanced batches, the shape
// of the fleet's range tasks (8 per engine, so 16 on the serving
// benchmark's two engines), and returns each batch's sequence count.
func dbRanges(db []*hybridsw.Sequence, n int) ([]*farrar.Batch, []int) {
	var total int64
	for _, d := range db {
		total += int64(d.Len())
	}
	var out []*farrar.Batch
	var sizes []int
	var targets [][]byte
	var cum int64
	for i, d := range db {
		targets = append(targets, d.Residues)
		cum += int64(d.Len())
		if cum >= total*int64(len(out)+1)/int64(n) || i == len(db)-1 {
			out = append(out, farrar.NewBatch(targets, hybridsw.DefaultScheme().Matrix.Alphabet()))
			sizes = append(sizes, len(targets))
			targets = nil
		}
	}
	return out, sizes
}

// BenchmarkScoreBatchDB times ScoreBatch, the engine's scan, over the
// benchmark database cut into 16 ranges, for planted queries of serving
// lengths: one op scores one query against every range. MCUPS counts real
// cells; lanes_share is the share of them on the lane path and occupancy
// the share of lane slots the ranges' layouts fill.
func BenchmarkScoreBatchDB(b *testing.B) {
	db := swissProt(b)
	batches, sizes := dbRanges(db, 16)
	var occ float64
	for _, bt := range batches {
		occ += farrar.LaneOccupancy(bt) / float64(len(batches))
	}
	rng := rand.New(rand.NewSource(27))
	for _, m := range []int{10, 25, 40, 100, 200, 400} {
		q := planted(rng, db, m)
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			var cells farrar.PathCells
			start := time.Now()
			for i := 0; i < b.N; i++ {
				for j, bt := range batches {
					k, err := farrar.NewKernel(q, hybridsw.DefaultScheme())
					if err != nil {
						b.Fatal(err)
					}
					k.ScoreBatch(bt, make([]int, sizes[j]), 1<<22, func(int64) bool { return true })
					c := k.PathCells()
					cells.Lanes += c.Lanes
					cells.Striped += c.Striped
				}
			}
			if elapsed := time.Since(start); elapsed > 0 {
				b.ReportMetric(float64(cells.Total())/elapsed.Seconds()/1e6, "MCUPS")
				b.ReportMetric(float64(cells.Lanes)/float64(cells.Total()), "lanes_share")
				b.ReportMetric(occ, "occupancy")
			}
		})
	}
}
