package farrar_test

import (
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
// below its ceiling — the SWAR tiers directly, and the dispatched 8-bit
// tier (SSE2 on amd64) through the ladder's Stats.
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
		}
		if st := k.Stats(); st.Scored8 != below8 {
			t.Fatalf("query %d aa: the dispatched 8-bit tier certified %d scores, %d lie below its ceiling", n, st.Scored8, below8)
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
