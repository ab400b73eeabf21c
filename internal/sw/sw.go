// Package sw implements reference dynamic-programming algorithms for
// pairwise biological sequence alignment.
//
// It provides the Smith-Waterman local alignment algorithm (Smith & Waterman
// 1981) in both the linear gap model and the affine-gap model of Gotoh
// (1982), with three kinds of kernels:
//
//   - score-only kernels in O(n) space (Score, ScoreEnds) — phase 1 of the
//     paper's §II-A, used by database search;
//   - a full-matrix traceback kernel (Align) — phase 2, which recovers the
//     optimal alignment itself;
//   - a Myers-Miller linear-space traceback (AlignLinearSpace), the phase 2
//     that serving runs, for sequences whose O(mn) matrix does not fit in
//     memory. Align is its reference.
//
// These are the trusted oracles: the vectorized Farrar kernel
// (internal/farrar) and the simulated GPU engine (internal/cudasw) are
// property-tested against this package.
package sw

import (
	"fmt"

	"repro/internal/score"
)

// Alignment is the result of a traceback alignment between a query q and a
// target t. Coordinates are 0-based, half-open over the original sequences.
type Alignment struct {
	Score int

	QueryStart, QueryEnd   int // q[QueryStart:QueryEnd] is aligned
	TargetStart, TargetEnd int // t[TargetStart:TargetEnd] is aligned

	// QueryRow and TargetRow are the aligned residue rows, equal length,
	// with '-' marking gaps.
	QueryRow  []byte
	TargetRow []byte
}

// Identity returns the fraction of alignment columns with identical
// residues, in [0, 1]. An empty alignment has identity 0.
func (a *Alignment) Identity() float64 {
	if len(a.QueryRow) == 0 {
		return 0
	}
	same := 0
	for i := range a.QueryRow {
		if a.QueryRow[i] == a.TargetRow[i] && a.QueryRow[i] != '-' {
			same++
		}
	}
	return float64(same) / float64(len(a.QueryRow))
}

// Gaps returns the number of gap characters across both rows.
func (a *Alignment) Gaps() int {
	n := 0
	for i := range a.QueryRow {
		if a.QueryRow[i] == '-' {
			n++
		}
		if a.TargetRow[i] == '-' {
			n++
		}
	}
	return n
}

// Rescore recomputes the alignment score column by column under scheme s.
// It is used by tests to confirm that tracebacks are internally consistent:
// Rescore must equal Score.
func (a *Alignment) Rescore(s score.Scheme) (int, error) {
	if len(a.QueryRow) != len(a.TargetRow) {
		return 0, fmt.Errorf("sw: ragged alignment rows (%d vs %d)", len(a.QueryRow), len(a.TargetRow))
	}
	total := 0
	inQGap, inTGap := false, false
	for i := range a.QueryRow {
		qc, tc := a.QueryRow[i], a.TargetRow[i]
		switch {
		case qc == '-' && tc == '-':
			return 0, fmt.Errorf("sw: double gap at column %d", i)
		case qc == '-':
			if !inQGap {
				total -= s.Gap.Open
			}
			total -= s.Gap.Extend
			inQGap, inTGap = true, false
		case tc == '-':
			if !inTGap {
				total -= s.Gap.Open
			}
			total -= s.Gap.Extend
			inTGap, inQGap = true, false
		default:
			total += s.Matrix.Score(qc, tc)
			inQGap, inTGap = false, false
		}
	}
	return total, nil
}

// Cells returns the number of DP cells a full comparison of sequence lengths
// m and n updates: the currency of the paper's GCUPS metric.
func Cells(m, n int) int64 { return int64(m) * int64(n) }

// Score computes the optimal Smith-Waterman local alignment score of q vs t
// under scheme s, in O(min-side) space. The empty alignment scores 0, so the
// result is never negative.
func Score(q, t []byte, s score.Scheme) int {
	sc, _, _ := ScoreEnds(q, t, s)
	return sc
}

// ScoreEnds computes the optimal local score and the (0-based, inclusive)
// end coordinates of an optimal alignment: q[.. qEnd] and t[.. tEnd] are the
// last aligned residues. For a zero score (no positive-scoring alignment),
// ends are -1.
//
// The recurrence is the paper's Equation (1), generalized to the affine-gap
// model when s.Gap.IsAffine(): three DP rows H, E, F as in Gotoh.
func ScoreEnds(q, t []byte, s score.Scheme) (best, qEnd, tEnd int) {
	m, n := len(q), len(t)
	qEnd, tEnd = -1, -1
	if m == 0 || n == 0 {
		return 0, qEnd, tEnd
	}
	open, ext := s.Gap.Open, s.Gap.Extend
	// H[j], E[j] hold row i-1 values while computing row i; diag carries
	// H[i-1][j-1].
	H := make([]int, n+1)
	E := make([]int, n+1)
	negInf := -(1 << 30)
	for j := range E {
		E[j] = negInf
	}
	for i := 1; i <= m; i++ {
		var row []int
		if qi := s.Matrix.Alphabet().Index(q[i-1]); qi >= 0 {
			row = s.Matrix.Row(qi)
		}
		diag := 0 // H[i-1][0]
		f := negInf
		hPrev := 0 // H[i][0]
		for j := 1; j <= n; j++ {
			e := max(H[j]-open-ext, E[j]-ext) // gap in q (vertical move)
			f = max(hPrev-open-ext, f-ext)    // gap in t (horizontal move)
			h := diag
			if k := s.Matrix.Alphabet().Index(t[j-1]); k >= 0 && row != nil {
				h += row[k]
			} else {
				h += s.Matrix.Min()
			}
			h = max(h, e, f, 0)
			diag = H[j]
			H[j], E[j] = h, e
			hPrev = h
			if h > best {
				best, qEnd, tEnd = h, i-1, j-1
			}
		}
	}
	return best, qEnd, tEnd
}
