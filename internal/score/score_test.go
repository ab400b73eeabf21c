package score

import (
	"strings"
	"testing"

	"repro/internal/seq"
)

func TestBLOSUM62KnownValues(t *testing.T) {
	cases := []struct {
		a, b byte
		want int
	}{
		{'A', 'A', 4},
		{'W', 'W', 11},
		{'W', 'A', -3},
		{'E', 'Z', 4},
		{'C', 'C', 9},
		{'*', '*', 1},
		{'A', '*', -4},
		{'L', 'I', 2},
	}
	for _, c := range cases {
		if got := BLOSUM62.Score(c.a, c.b); got != c.want {
			t.Errorf("BLOSUM62(%c,%c) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestBLOSUM50KnownValues(t *testing.T) {
	if got := BLOSUM50.Score('W', 'W'); got != 15 {
		t.Errorf("BLOSUM50(W,W) = %d, want 15", got)
	}
	if got := BLOSUM50.Score('A', 'A'); got != 5 {
		t.Errorf("BLOSUM50(A,A) = %d, want 5", got)
	}
}

// symmetric reports whether m scores every residue pair the same both ways.
func symmetric(m *Matrix) bool {
	n := len(m.Row(0))
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if m.Row(i)[j] != m.Row(j)[i] {
				return false
			}
		}
	}
	return true
}

func TestMatricesSymmetric(t *testing.T) {
	for _, m := range []*Matrix{BLOSUM62, BLOSUM50} {
		if !symmetric(m) {
			t.Errorf("%s is not symmetric", m.Name())
		}
	}
}

func TestMatrixDiagonalDominance(t *testing.T) {
	// Every standard matrix scores identity at least as well as any
	// substitution involving that residue (for the 20 canonical residues).
	for _, m := range []*Matrix{BLOSUM62, BLOSUM50} {
		for i := 0; i < 20; i++ {
			a := m.Alphabet().Letter(i)
			for j := 0; j < 20; j++ {
				b := m.Alphabet().Letter(j)
				if i != j && m.Score(a, b) >= m.Score(a, a) {
					t.Errorf("%s: score(%c,%c)=%d >= score(%c,%c)=%d",
						m.Name(), a, b, m.Score(a, b), a, a, m.Score(a, a))
				}
			}
		}
	}
}

func TestMatrixMaxMin(t *testing.T) {
	if BLOSUM62.Max() != 11 {
		t.Errorf("BLOSUM62.Max() = %d, want 11", BLOSUM62.Max())
	}
	if BLOSUM62.Min() != -4 {
		t.Errorf("BLOSUM62.Min() = %d, want -4", BLOSUM62.Min())
	}
}

func TestScoreUnknownResidue(t *testing.T) {
	if got := BLOSUM62.Score('A', '1'); got != BLOSUM62.Min() {
		t.Errorf("score vs non-residue = %d, want matrix min %d", got, BLOSUM62.Min())
	}
}

func TestMatchMismatch(t *testing.T) {
	m := NewMatchMismatch(seq.DNA, 1, -1)
	if m.Score('A', 'A') != 1 || m.Score('A', 'T') != -1 {
		t.Errorf("match/mismatch scores wrong: %d %d", m.Score('A', 'A'), m.Score('A', 'T'))
	}
	if !symmetric(m) {
		t.Error("match/mismatch matrix should be symmetric")
	}
}

func TestScoreIndexAgreesWithScore(t *testing.T) {
	a := BLOSUM62.Alphabet()
	for i := 0; i < a.Size(); i++ {
		for j := 0; j < a.Size(); j++ {
			if BLOSUM62.ScoreIndex(byte(i), byte(j)) != BLOSUM62.Score(a.Letter(i), a.Letter(j)) {
				t.Fatalf("ScoreIndex(%d,%d) disagrees with Score", i, j)
			}
		}
	}
}

func TestGapModels(t *testing.T) {
	lin := LinearGap(2)
	if lin.IsAffine() {
		t.Error("LinearGap should not be affine")
	}
	aff := AffineGap(10, 2)
	if !aff.IsAffine() {
		t.Error("AffineGap should be affine")
	}
}

func TestGapValidate(t *testing.T) {
	if err := AffineGap(10, 2).Validate(); err != nil {
		t.Errorf("valid gap rejected: %v", err)
	}
	if err := (Gap{Open: -1, Extend: 2}).Validate(); err == nil {
		t.Error("negative open accepted")
	}
	if err := (Gap{Open: 5, Extend: 0}).Validate(); err == nil {
		t.Error("zero extend accepted")
	}
}

func TestGapString(t *testing.T) {
	if s := AffineGap(10, 2).String(); !strings.Contains(s, "affine") {
		t.Errorf("String() = %q", s)
	}
	if s := LinearGap(2).String(); !strings.Contains(s, "linear") {
		t.Errorf("String() = %q", s)
	}
}

func TestSchemeValidate(t *testing.T) {
	if err := DefaultProtein().Validate(); err != nil {
		t.Errorf("DefaultProtein invalid: %v", err)
	}
	if err := (Scheme{}).Validate(); err == nil {
		t.Error("empty scheme accepted")
	}
}

func TestParseNCBIErrors(t *testing.T) {
	cases := []string{
		"",                   // empty
		"AB C\nA 1 2",        // bad header field
		"A C\nA 1",           // short row
		"A C\nA 1 x\nC 1 1",  // non-numeric
		"A C\nAB 1 2\nC 1 1", // bad row label
	}
	for _, c := range cases {
		if _, err := ParseNCBI("bad", strings.NewReader(c)); err == nil {
			t.Errorf("ParseNCBI(%q) succeeded, want error", c)
		}
	}
}

func TestParseNCBIMissingResidues(t *testing.T) {
	// A tiny matrix defining only A and C: all other protein residues must
	// fall back to the file minimum.
	m, err := ParseNCBI("tiny", strings.NewReader(" A C\nA 4 -2\nC -2 9\n"))
	if err != nil {
		t.Fatal(err)
	}
	if m.Score('A', 'A') != 4 || m.Score('C', 'C') != 9 {
		t.Error("defined scores wrong")
	}
	if m.Score('W', 'W') != -2 {
		t.Errorf("undefined residue score = %d, want file min -2", m.Score('W', 'W'))
	}
}

func TestNewMatrixShapeErrors(t *testing.T) {
	if _, err := NewMatrix("bad", seq.DNA, [][]int{{1}}); err == nil {
		t.Error("wrong row count accepted")
	}
	if _, err := NewMatrix("bad", seq.DNA, [][]int{{1}, {1}, {1}, {1}}); err == nil {
		t.Error("ragged rows accepted")
	}
}
