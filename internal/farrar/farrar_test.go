package farrar

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/score"
	"repro/internal/seq"
	"repro/internal/sw"
)

func protScheme() score.Scheme { return score.DefaultProtein() }

func randProtein(rng *rand.Rand, n int) []byte {
	const canon = "ACDEFGHIKLMNPQRSTVWY"
	out := make([]byte, n)
	for i := range out {
		out[i] = canon[rng.Intn(len(canon))]
	}
	return out
}

func mutate(rng *rand.Rand, s []byte, rate float64) []byte {
	const canon = "ACDEFGHIKLMNPQRSTVWY"
	var out []byte
	for _, c := range s {
		r := rng.Float64()
		switch {
		case r < rate/3:
		case r < 2*rate/3:
			out = append(out, c, canon[rng.Intn(len(canon))])
		case r < rate:
			out = append(out, canon[rng.Intn(len(canon))])
		default:
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		out = []byte("A")
	}
	return out
}

func TestNewKernelValidation(t *testing.T) {
	if _, err := NewKernel(nil, protScheme()); err == nil {
		t.Error("empty query accepted")
	}
	if _, err := NewKernel([]byte("ACDE1"), protScheme()); err == nil {
		t.Error("invalid residue accepted")
	}
	if _, err := NewKernel([]byte("ACDE"), score.Scheme{}); err == nil {
		t.Error("invalid scheme accepted")
	}
	if _, err := NewKernel([]byte("ACDE"), protScheme()); err != nil {
		t.Errorf("valid kernel rejected: %v", err)
	}
}

func TestScoreMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 150; iter++ {
		q := randProtein(rng, 1+rng.Intn(120))
		d := mutate(rng, q, 0.4)
		k, err := NewKernel(q, protScheme())
		if err != nil {
			t.Fatal(err)
		}
		want := sw.Score(q, d, protScheme())
		if got := k.Score(d); got != want {
			t.Fatalf("iter %d (m=%d n=%d): farrar=%d reference=%d\nq=%s\nd=%s",
				iter, len(q), len(d), got, want, q, d)
		}
	}
}

func TestScoreMatchesReferenceUnrelated(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for iter := 0; iter < 80; iter++ {
		q := randProtein(rng, 1+rng.Intn(200))
		d := randProtein(rng, 1+rng.Intn(400))
		k, _ := NewKernel(q, protScheme())
		if got, want := k.Score(d), sw.Score(q, d, protScheme()); got != want {
			t.Fatalf("iter %d: farrar=%d reference=%d", iter, got, want)
		}
	}
}

func TestScoreGapHeavySchemes(t *testing.T) {
	// Cheap gaps and harsh mismatches force the lazy-F correction loop to
	// run; this is where striped implementations usually break.
	schemes := []score.Scheme{
		{Matrix: score.NewMatchMismatch(seq.Protein, 4, -10), Gap: score.AffineGap(1, 1)},
		{Matrix: score.NewMatchMismatch(seq.Protein, 2, -1), Gap: score.AffineGap(0+1, 1)},
		{Matrix: score.BLOSUM62, Gap: score.AffineGap(1, 1)},
		{Matrix: score.BLOSUM62, Gap: score.LinearGap(1)},
		{Matrix: score.BLOSUM50, Gap: score.AffineGap(12, 2)},
	}
	rng := rand.New(rand.NewSource(44))
	for si, s := range schemes {
		for iter := 0; iter < 40; iter++ {
			q := randProtein(rng, 1+rng.Intn(90))
			d := mutate(rng, q, 0.5)
			k, err := NewKernel(q, s)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := k.Score(d), sw.Score(q, d, s); got != want {
				t.Fatalf("scheme %d iter %d: farrar=%d reference=%d\nq=%s\nd=%s", si, iter, got, want, q, d)
			}
		}
	}
}

func TestScoreSingleLaneAndBoundarySizes(t *testing.T) {
	// Query lengths around multiples of the lane counts hit striping edge
	// cases (partial final lanes).
	rng := rand.New(rand.NewSource(45))
	for _, m := range []int{1, 2, 7, 8, 9, 15, 16, 17, 31, 32, 33, 127, 128, 129} {
		q := randProtein(rng, m)
		d := mutate(rng, q, 0.3)
		k, _ := NewKernel(q, protScheme())
		if got, want := k.Score(d), sw.Score(q, d, protScheme()); got != want {
			t.Fatalf("m=%d: farrar=%d reference=%d", m, got, want)
		}
	}
}

func TestScoreEmptyTarget(t *testing.T) {
	k, _ := NewKernel([]byte("ACDEFG"), protScheme())
	if got := k.Score(nil); got != 0 {
		t.Errorf("empty target score = %d", got)
	}
}

func TestScoreInvalidTargetResidues(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	q := randProtein(rng, 40)
	d := append(randProtein(rng, 30), '1', '?', 'J')
	rng.Shuffle(len(d), func(i, j int) { d[i], d[j] = d[j], d[i] })
	k, _ := NewKernel(q, protScheme())
	if got, want := k.Score(d), sw.Score(q, d, protScheme()); got != want {
		t.Errorf("invalid-residue target: farrar=%d reference=%d", got, want)
	}
}

func TestFallbackTo16Bit(t *testing.T) {
	// A self-comparison of a 600-residue query scores far above the 8-bit
	// ceiling of 127 minus bias, forcing the 16-bit kernel.
	rng := rand.New(rand.NewSource(47))
	q := randProtein(rng, 600)
	k, _ := NewKernel(q, protScheme())
	want := sw.Score(q, q, protScheme())
	if want < 127 {
		t.Fatalf("test setup: self score %d too small", want)
	}
	if got := k.Score(q); got != want {
		t.Fatalf("16-bit fallback score = %d, want %d", got, want)
	}
	st := k.Stats()
	if st.Fallback16 != 1 || st.Scored8 != 0 {
		t.Errorf("stats = %+v, want exactly one 16-bit fallback", st)
	}
	if _, ok := k.ScoreU8(q); ok {
		t.Error("ScoreU8 claimed ok on an overflowing comparison")
	}
}

func TestFallbackToScalar(t *testing.T) {
	// Self-comparison of 3000 tryptophans: score 3000*11 (W:W=11)
	// exceeds 32767, forcing the scalar fallback.
	q := bytes.Repeat([]byte("W"), 3000)
	k, _ := NewKernel(q, protScheme())
	want := 3000 * 11
	if got := k.Score(q); got != want {
		t.Fatalf("scalar fallback score = %d, want %d", got, want)
	}
	if st := k.Stats(); st.FallbackSW != 1 {
		t.Errorf("stats = %+v, want one scalar fallback", st)
	}
	if _, ok := k.ScoreI16(q); ok {
		t.Error("ScoreI16 claimed ok on an overflowing comparison")
	}
}

func TestKernelReuseAcrossTargets(t *testing.T) {
	// One profile, many targets: the database-search usage pattern.
	rng := rand.New(rand.NewSource(48))
	q := randProtein(rng, 80)
	k, _ := NewKernel(q, protScheme())
	var below int64 // targets under the 8-bit ceiling
	for i := 0; i < 30; i++ {
		d := mutate(rng, q, 0.6)
		want := sw.Score(q, d, protScheme())
		if got := k.Score(d); got != want {
			t.Fatalf("target %d: farrar=%d reference=%d", i, got, want)
		}
		if want < k.ceiling8() {
			below++
		}
	}
	if below == 0 || below == 30 {
		t.Fatalf("test setup: %d of 30 targets below the 8-bit ceiling, want both tiers", below)
	}
	if st := k.Stats(); st.Scored8 != below || st.Fallback16 != 30-below {
		t.Errorf("stats = %+v, want Scored8 = %d and the rest in the 16-bit tier", st, below)
	}
}

// TestScoreReusesScratch pins farrar.allocs_per_seq at 0: once the first
// calls have built the tiers' profiles and sized the scratch buffer, Score
// allocates nothing on either SWAR tier.
func TestScoreReusesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	q := randProtein(rng, 300)
	unrelated := randProtein(rng, 400)
	k, _ := NewKernel(q, protScheme())
	k.Score(q) // the self-alignment escalates to the 16-bit tier
	if allocs := testing.AllocsPerRun(20, func() { k.Score(unrelated); k.Score(q) }); allocs != 0 {
		t.Errorf("Score allocated %.1f times per call pair after the first call, want 0", allocs)
	}
	if st := k.Stats(); st.Scored8 == 0 || st.Fallback16 == 0 {
		t.Errorf("stats = %+v, want both SWAR tiers exercised", st)
	}
}

func TestCellsAndQuery(t *testing.T) {
	q := []byte("ACDEF")
	k, _ := NewKernel(q, protScheme())
	if k.Cells([]byte("ACD")) != 15 {
		t.Errorf("Cells = %d, want 15", k.Cells([]byte("ACD")))
	}
}

func TestScoreI16DirectMatchesReference(t *testing.T) {
	// Exercise the 16-bit kernel directly (not only via fallback).
	rng := rand.New(rand.NewSource(49))
	for iter := 0; iter < 60; iter++ {
		q := randProtein(rng, 1+rng.Intn(100))
		d := mutate(rng, q, 0.4)
		k, _ := NewKernel(q, protScheme())
		got, ok := k.ScoreI16(d)
		if !ok {
			t.Fatalf("iter %d: unexpected i16 overflow", iter)
		}
		if want := sw.Score(q, d, protScheme()); got != want {
			t.Fatalf("iter %d: i16=%d reference=%d", iter, got, want)
		}
	}
}

func TestFarrarOnDNAScheme(t *testing.T) {
	// The kernels are alphabet-agnostic: the paper's Fig. 1 DNA scoring
	// (match +1, mismatch -1) must agree with the reference as well.
	s := score.Scheme{Matrix: score.NewMatchMismatch(seq.DNA, 1, -1), Gap: score.AffineGap(1, 1)}
	rng := rand.New(rand.NewSource(60))
	letters := []byte("ATGC")
	for iter := 0; iter < 40; iter++ {
		q := make([]byte, 1+rng.Intn(80))
		d := make([]byte, 1+rng.Intn(120))
		for i := range q {
			q[i] = letters[rng.Intn(4)]
		}
		for i := range d {
			d[i] = letters[rng.Intn(4)]
		}
		k, err := NewKernel(q, s)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := k.Score(d), sw.Score(q, d, s); got != want {
			t.Fatalf("iter %d: %d != %d", iter, got, want)
		}
	}
}
