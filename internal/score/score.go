// Package score provides substitution matrices and gap-penalty models for
// biological sequence comparison.
//
// A pairwise alignment is scored column by column: a substitution score for
// two aligned residues (match/mismatch for nucleotides, a matrix entry such
// as BLOSUM62 for proteins), plus penalties for gaps. The package supports
// both the linear gap model of the original Smith-Waterman algorithm (every
// gap residue costs g) and the affine model of Gotoh (the first gap residue
// costs GapOpen+GapExtend, each following one GapExtend), which reflects
// that in nature gaps tend to occur together.
package score

import (
	"fmt"

	"repro/internal/seq"
)

// Matrix is a residue substitution matrix over an alphabet. Scores are
// indexed by the dense residue indices of the alphabet.
type Matrix struct {
	name     string
	alphabet *seq.Alphabet
	scores   [][]int // scores[i][j], square, Size x Size
	max, min int
}

// NewMatrix wraps a square score table defined over alphabet a. The table is
// not copied; callers must not mutate it afterwards.
func NewMatrix(name string, a *seq.Alphabet, scores [][]int) (*Matrix, error) {
	n := a.Size()
	if len(scores) != n {
		return nil, fmt.Errorf("score: %s: %d rows for alphabet of size %d", name, len(scores), n)
	}
	m := &Matrix{name: name, alphabet: a, scores: scores}
	m.max, m.min = scores[0][0], scores[0][0]
	for i, row := range scores {
		if len(row) != n {
			return nil, fmt.Errorf("score: %s: row %d has %d columns, want %d", name, i, len(row), n)
		}
		for _, v := range row {
			if v > m.max {
				m.max = v
			}
			if v < m.min {
				m.min = v
			}
		}
	}
	return m, nil
}

// NewMatchMismatch builds the simple nucleotide scorer of the paper's Fig. 1:
// punctuation ma for identical residues, penalty mi otherwise.
func NewMatchMismatch(a *seq.Alphabet, ma, mi int) *Matrix {
	n := a.Size()
	scores := make([][]int, n)
	for i := range scores {
		scores[i] = make([]int, n)
		for j := range scores[i] {
			if i == j {
				scores[i][j] = ma
			} else {
				scores[i][j] = mi
			}
		}
	}
	m, err := NewMatrix(fmt.Sprintf("match%+d/mismatch%+d", ma, mi), a, scores)
	if err != nil {
		panic(err) // impossible: table is square by construction
	}
	return m
}

// Name returns the matrix name (e.g. "BLOSUM62").
func (m *Matrix) Name() string { return m.name }

// Alphabet returns the alphabet the matrix is defined over.
func (m *Matrix) Alphabet() *seq.Alphabet { return m.alphabet }

// Score returns the substitution score of residue letters a vs b.
// Residues outside the alphabet score the matrix minimum, so malformed
// input degrades instead of crashing the dynamic programming kernels.
func (m *Matrix) Score(a, b byte) int {
	i, j := m.alphabet.Index(a), m.alphabet.Index(b)
	if i < 0 || j < 0 {
		return m.min
	}
	return m.scores[i][j]
}

// ScoreIndex returns the substitution score for dense residue indices.
func (m *Matrix) ScoreIndex(i, j byte) int { return m.scores[i][j] }

// Max returns the largest score in the matrix.
func (m *Matrix) Max() int { return m.max }

// Min returns the smallest score in the matrix.
func (m *Matrix) Min() int { return m.min }

// Row returns the score row for dense residue index i.
func (m *Matrix) Row(i int) []int { return m.scores[i] }

// Gap describes gap penalties. Penalties are stored as non-negative
// magnitudes and subtracted by the alignment kernels.
//
// Linear model (IsAffine() == false): a run of k gap residues costs
// k*Extend. Affine (Gotoh) model: the run costs Open + k*Extend.
type Gap struct {
	Open   int // penalty charged once when a gap is opened; 0 means linear
	Extend int // penalty charged for every gap residue
}

// LinearGap returns the linear model where each gap residue costs g.
func LinearGap(g int) Gap { return Gap{Open: 0, Extend: g} }

// AffineGap returns the affine (Gotoh) model.
func AffineGap(open, extend int) Gap { return Gap{Open: open, Extend: extend} }

// IsAffine reports whether opening a gap costs extra.
func (g Gap) IsAffine() bool { return g.Open != 0 }

// Validate checks the penalties are usable by the DP kernels.
func (g Gap) Validate() error {
	if g.Open < 0 || g.Extend <= 0 {
		return fmt.Errorf("score: invalid gap penalties open=%d extend=%d (want open >= 0, extend > 0)", g.Open, g.Extend)
	}
	return nil
}

func (g Gap) String() string {
	if g.IsAffine() {
		return fmt.Sprintf("affine(open=%d, extend=%d)", g.Open, g.Extend)
	}
	return fmt.Sprintf("linear(g=%d)", g.Extend)
}

// Scheme bundles a substitution matrix with gap penalties — everything a
// Smith-Waterman kernel needs to score alignments.
type Scheme struct {
	Matrix *Matrix
	Gap    Gap
}

// DefaultProtein is the scheme used throughout the paper's evaluation:
// BLOSUM62 with gap open 10, gap extend 2 (the CUDASW++ 2.0 default).
func DefaultProtein() Scheme {
	return Scheme{Matrix: BLOSUM62, Gap: AffineGap(10, 2)}
}

// Validate checks the scheme is internally consistent.
func (s Scheme) Validate() error {
	if s.Matrix == nil {
		return fmt.Errorf("score: scheme has no substitution matrix")
	}
	return s.Gap.Validate()
}
