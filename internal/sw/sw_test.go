package sw

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/score"
	"repro/internal/seq"
)

// fig1Scheme is the paper's Fig. 1 scoring: ma=+1, mi=-1, g=-2 (linear).
func fig1Scheme() score.Scheme {
	return score.Scheme{Matrix: score.NewMatchMismatch(seq.DNA, 1, -1), Gap: score.LinearGap(2)}
}

func protScheme() score.Scheme { return score.DefaultProtein() }

// randProtein draws n residues from the 20 canonical amino acids.
func randProtein(rng *rand.Rand, n int) []byte {
	const canon = "ACDEFGHIKLMNPQRSTVWY"
	out := make([]byte, n)
	for i := range out {
		out[i] = canon[rng.Intn(len(canon))]
	}
	return out
}

// mutate returns a noisy copy of s: point substitutions plus indels, so
// related pairs exercise gap code paths.
func mutate(rng *rand.Rand, s []byte, rate float64) []byte {
	const canon = "ACDEFGHIKLMNPQRSTVWY"
	var out []byte
	for _, c := range s {
		r := rng.Float64()
		switch {
		case r < rate/3: // deletion
		case r < 2*rate/3: // insertion
			out = append(out, c, canon[rng.Intn(len(canon))])
		case r < rate: // substitution
			out = append(out, canon[rng.Intn(len(canon))])
		default:
			out = append(out, c)
		}
	}
	return out
}

func TestPaperFig2LocalScore(t *testing.T) {
	// §II-A Fig. 2: the similarity matrix of s=GCTGACCT(?) vs t=GAAGCTA
	// yields local score 3 with ma=+1, mi=-1, g=-2 — the exact match "GCT".
	got := Score([]byte("GCTGACCT"), []byte("GAAGCTA"), fig1Scheme())
	if got != 3 {
		t.Errorf("Fig.2 local score = %d, want 3", got)
	}
}

func TestScoreHandComputed(t *testing.T) {
	s := fig1Scheme()
	cases := []struct {
		q, t string
		want int
	}{
		{"", "", 0},
		{"A", "", 0},
		{"", "T", 0},
		{"A", "A", 1},
		{"A", "T", 0},        // empty alignment beats a mismatch
		{"ACGT", "ACGT", 4},  // perfect identity
		{"ACGT", "TGCA", 1},  // best is any single match
		{"AAAA", "AATAA", 2}, // 4 matches - one gap (4-2), ties 3 matches - 1 mismatch
		{"ACGTACGT", "ACGT", 4},
	}
	for _, c := range cases {
		if got := Score([]byte(c.q), []byte(c.t), s); got != c.want {
			t.Errorf("Score(%q,%q) = %d, want %d", c.q, c.t, got, c.want)
		}
	}
}

func TestScoreAffineHandComputed(t *testing.T) {
	// match +2, mismatch -1, open 2, extend 1 over DNA.
	s := score.Scheme{Matrix: score.NewMatchMismatch(seq.DNA, 2, -1), Gap: score.AffineGap(2, 1)}
	// q=ACGTT t=ACTT: align ACGTT / AC-TT = 4 matches (8) - (2+1) = 5,
	// or ACGTT/AC.TT with mismatch G/T: 2+2-1+2+2 = 7? ACGTT vs ACTT has
	// len 5 vs 4 so one gap is mandatory for full use; local best:
	// "ACGTT" vs "AC-TT" scores 8-3=5; "CGTT" vs "CTT"... "GTT"/"TT"?
	// "TT"/"TT" = 4. Check best = 5.
	if got := Score([]byte("ACGTT"), []byte("ACTT"), s); got != 5 {
		t.Errorf("affine Score = %d, want 5", got)
	}
}

func TestScoreEndsCoordinates(t *testing.T) {
	s := fig1Scheme()
	// The GCT match spans q[0:3] and t[3:6] (0-based inclusive ends 2, 5).
	sc, qe, te := ScoreEnds([]byte("GCTGACCT"), []byte("GAAGCTA"), s)
	if sc != 3 || qe != 2 || te != 5 {
		t.Errorf("ScoreEnds = (%d,%d,%d), want (3,2,5)", sc, qe, te)
	}
	sc, qe, te = ScoreEnds([]byte("AAAA"), []byte("TTTT"), s)
	if sc != 0 || qe != -1 || te != -1 {
		t.Errorf("no-alignment ScoreEnds = (%d,%d,%d), want (0,-1,-1)", sc, qe, te)
	}
}

func TestScoreSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 50; iter++ {
		q := randProtein(rng, 1+rng.Intn(60))
		d := randProtein(rng, 1+rng.Intn(60))
		if Score(q, d, protScheme()) != Score(d, q, protScheme()) {
			t.Fatalf("Score not symmetric for %s vs %s", q, d)
		}
	}
}

func TestScoreSelfIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	q := randProtein(rng, 100)
	want := 0
	for _, c := range q {
		want += protScheme().Matrix.Score(c, c)
	}
	if got := Score(q, q, protScheme()); got != want {
		t.Errorf("self score = %d, want %d", got, want)
	}
}

func TestScoreMonotoneInTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	q := randProtein(rng, 50)
	d := randProtein(rng, 100)
	prev := -1
	for cut := 0; cut <= len(d); cut += 10 {
		sc := Score(q, d[:cut], protScheme())
		if sc < prev {
			t.Fatalf("score decreased when extending target: %d -> %d", prev, sc)
		}
		prev = sc
	}
}

func TestLinearEqualsAffineWithZeroOpen(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := score.NewMatchMismatch(seq.DNA, 2, -3)
	lin := score.Scheme{Matrix: m, Gap: score.LinearGap(2)}
	aff := score.Scheme{Matrix: m, Gap: score.Gap{Open: 0, Extend: 2}}
	letters := []byte("ATGC")
	for iter := 0; iter < 50; iter++ {
		q := make([]byte, 1+rng.Intn(30))
		d := make([]byte, 1+rng.Intn(30))
		for i := range q {
			q[i] = letters[rng.Intn(4)]
		}
		for i := range d {
			d[i] = letters[rng.Intn(4)]
		}
		if Score(q, d, lin) != Score(q, d, aff) {
			t.Fatalf("linear != affine(open=0) for %s vs %s", q, d)
		}
	}
}

func TestAlignAgreesWithScoreAndRescores(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for iter := 0; iter < 80; iter++ {
		q := randProtein(rng, 1+rng.Intn(80))
		d := mutate(rng, q, 0.3)
		if len(d) == 0 {
			continue
		}
		want := Score(q, d, protScheme())
		a := Align(q, d, protScheme())
		if a.Score != want {
			t.Fatalf("iter %d: Align.Score=%d, Score=%d", iter, a.Score, want)
		}
		if want == 0 {
			continue
		}
		re, err := a.Rescore(protScheme())
		if err != nil {
			t.Fatalf("iter %d: Rescore: %v", iter, err)
		}
		if re != want {
			t.Fatalf("iter %d: Rescore=%d, want %d\n%s", iter, re, want, a.Format(protScheme(), 60))
		}
		// Aligned rows must spell the claimed sub-sequences.
		if got := strings.ReplaceAll(string(a.QueryRow), "-", ""); got != string(q[a.QueryStart:a.QueryEnd]) {
			t.Fatalf("iter %d: query row %q != q[%d:%d]", iter, got, a.QueryStart, a.QueryEnd)
		}
		if got := strings.ReplaceAll(string(a.TargetRow), "-", ""); got != string(d[a.TargetStart:a.TargetEnd]) {
			t.Fatalf("iter %d: target row %q != t[%d:%d]", iter, got, a.TargetStart, a.TargetEnd)
		}
	}
}

func TestAlignEmptyResult(t *testing.T) {
	a := Align([]byte("AAAA"), []byte("TTTT"), fig1Scheme())
	if a.Score != 0 || len(a.QueryRow) != 0 {
		t.Errorf("expected empty alignment, got %+v", a)
	}
	if a.Identity() != 0 {
		t.Errorf("empty Identity = %v", a.Identity())
	}
}

// TestAlignLinearSpaceMatchesLocal checks the Myers-Miller aligner that
// serving runs against the full-matrix Align: the same local score, and a
// traceback that rescores to it and spells both aligned substrings.
func TestAlignLinearSpaceMatchesLocal(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for iter := 0; iter < 120; iter++ {
		q := randProtein(rng, 1+rng.Intn(70))
		d := mutate(rng, q, 0.35)
		want := Align(q, d, protScheme()).Score
		if sc := Score(q, d, protScheme()); sc != want {
			t.Fatalf("iter %d: full-matrix score %d != Score %d", iter, want, sc)
		}
		a := AlignLinearSpace(q, d, protScheme())
		if a.Score != want {
			t.Fatalf("iter %d: linear-space local score %d != full-matrix %d", iter, a.Score, want)
		}
		if want == 0 {
			continue
		}
		re, err := a.Rescore(protScheme())
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if re != want {
			t.Fatalf("iter %d: linear-space rescore %d != %d", iter, re, want)
		}
		if strings.ReplaceAll(string(a.QueryRow), "-", "") != string(q[a.QueryStart:a.QueryEnd]) ||
			strings.ReplaceAll(string(a.TargetRow), "-", "") != string(d[a.TargetStart:a.TargetEnd]) {
			t.Fatalf("iter %d: rows/coords inconsistent", iter)
		}
	}
}

func TestCells(t *testing.T) {
	if Cells(100, 5000) != 500000 {
		t.Errorf("Cells(100,5000) = %d", Cells(100, 5000))
	}
	if Cells(1<<20, 1<<20) != 1<<40 {
		t.Error("Cells overflows at large sizes")
	}
}

func TestAlignmentHelpers(t *testing.T) {
	a := &Alignment{
		Score:    5,
		QueryRow: []byte("AC-T"), TargetRow: []byte("AGGT"),
	}
	if got := a.Identity(); got != 0.5 {
		t.Errorf("Identity = %v, want 0.5", got)
	}
	if got := a.Gaps(); got != 1 {
		t.Errorf("Gaps = %d, want 1", got)
	}
}

func TestRescoreRejectsMalformed(t *testing.T) {
	bad := &Alignment{QueryRow: []byte("A-"), TargetRow: []byte("A")}
	if _, err := bad.Rescore(protScheme()); err == nil {
		t.Error("ragged rows accepted")
	}
	dbl := &Alignment{QueryRow: []byte("-"), TargetRow: []byte("-")}
	if _, err := dbl.Rescore(protScheme()); err == nil {
		t.Error("double gap accepted")
	}
}

func TestFormatContainsCoordinates(t *testing.T) {
	q := []byte("ACDEFGHIKLMNP")
	a := Align(q, q, protScheme())
	out := a.Format(protScheme(), 10)
	for _, want := range []string{"Score", "Query", "Target", "|"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format output missing %q:\n%s", want, out)
		}
	}
	empty := &Alignment{}
	if !strings.Contains(empty.Format(protScheme(), 0), "empty") {
		t.Error("empty alignment format should say so")
	}
}
