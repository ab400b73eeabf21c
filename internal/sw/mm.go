package sw

import "repro/internal/score"

// This file implements the Myers-Miller (1988) divide-and-conquer alignment,
// which recovers an optimal affine-gap alignment in O(m+n) space instead of
// the O(mn) matrix used by Align. The paper cites this family of
// techniques ([4]: "Smith-Waterman Alignment of Huge Sequences with GPU in
// Linear Space") as the way to align sequences whose DP matrix cannot be
// stored.
//
// Orientation: the first sequence q is split at its midpoint; only vertical
// gaps (q residues aligned to '-') can cross a split boundary. tb and te are
// the gap-open penalties in force at the top and bottom boundaries of a
// block: 0 when the block's boundary gap continues an enclosing gap.

// mmAligner carries the shared state of one Myers-Miller run.
type mmAligner struct {
	s          score.Scheme
	qRow, tRow []byte // emitted alignment rows
}

// AlignLinearSpace computes an optimal Smith-Waterman local alignment in
// linear space: a forward score pass locates the alignment end, a reverse
// pass locates its start, and Myers-Miller aligns the bounded region.
func AlignLinearSpace(q, t []byte, s score.Scheme) *Alignment {
	best, qe, te := ScoreEnds(q, t, s)
	if best == 0 {
		return &Alignment{}
	}
	// Reverse pass over the prefixes ending at (qe, te) finds the start.
	qr := reversed(q[:qe+1])
	tr := reversed(t[:te+1])
	rBest, rqe, rte := ScoreEnds(qr, tr, s)
	if rBest != best {
		// Cannot happen for a correct kernel; fail loudly in tests.
		panic("sw: forward/reverse local score mismatch")
	}
	qs, ts := qe-rqe, te-rte

	a := &mmAligner{s: s}
	sc := a.diff(q[qs:qe+1], t[ts:te+1], s.Gap.Open, s.Gap.Open)
	return &Alignment{
		Score:      sc,
		QueryStart: qs, QueryEnd: qe + 1,
		TargetStart: ts, TargetEnd: te + 1,
		QueryRow: a.qRow, TargetRow: a.tRow,
	}
}

func reversed(b []byte) []byte {
	out := make([]byte, len(b))
	for i, c := range b {
		out[len(b)-1-i] = c
	}
	return out
}

// del emits k query residues aligned to gaps (a vertical gap).
func (a *mmAligner) del(q []byte) {
	for _, c := range q {
		a.qRow = append(a.qRow, c)
		a.tRow = append(a.tRow, '-')
	}
}

// ins emits k target residues aligned to gaps (a horizontal gap).
func (a *mmAligner) ins(t []byte) {
	for _, c := range t {
		a.qRow = append(a.qRow, '-')
		a.tRow = append(a.tRow, c)
	}
}

// rep emits an aligned residue pair.
func (a *mmAligner) rep(qc, tc byte) {
	a.qRow = append(a.qRow, qc)
	a.tRow = append(a.tRow, tc)
}

// gapCost returns the (positive) cost of a gap of length k with opening
// penalty open.
func (a *mmAligner) gapCost(open, k int) int {
	if k <= 0 {
		return 0
	}
	return open + k*a.s.Gap.Extend
}

// diff aligns q vs t, emitting the alignment and returning its score. tb and
// te are the vertical-gap opening penalties in force at the top and bottom
// boundaries.
func (a *mmAligner) diff(q, t []byte, tb, te int) int {
	m, n := len(q), len(t)
	open, ext := a.s.Gap.Open, a.s.Gap.Extend

	// Base case: no target residues left; q becomes one vertical gap that
	// may continue past either boundary.
	if n == 0 {
		if m == 0 {
			return 0
		}
		a.del(q)
		return -a.gapCost(min(tb, te), m)
	}
	// Base case: no query residues; t becomes one horizontal gap.
	if m == 0 {
		a.ins(t)
		return -a.gapCost(open, n)
	}
	// Base case: a single query residue, solved directly.
	if m == 1 {
		// Option A: delete q[0] and insert all of t as separate gaps.
		bestScore := -(a.gapCost(min(tb, te), 1) + a.gapCost(open, n))
		bestJ := -1
		// Option B: align q[0] to t[j], gaps around it.
		for j := 0; j < n; j++ {
			sc := -a.gapCost(open, j) + a.s.Matrix.Score(q[0], t[j]) - a.gapCost(open, n-1-j)
			if sc > bestScore {
				bestScore, bestJ = sc, j
			}
		}
		if bestJ < 0 {
			if tb < te { // place the deletion next to the cheaper boundary
				a.del(q)
				a.ins(t)
			} else {
				a.ins(t)
				a.del(q)
			}
		} else {
			a.ins(t[:bestJ])
			a.rep(q[0], t[bestJ])
			a.ins(t[bestJ+1:])
		}
		return bestScore
	}

	mid := m / 2

	// Forward pass over q[:mid]: CC[j] = best score of q[:mid] vs t[:j];
	// DD[j] = best such score ending in a vertical gap.
	CC := make([]int, n+1)
	DD := make([]int, n+1)
	fwd := func(qh []byte, boundaryOpen int, lookup func(int) byte) {
		CC[0] = 0
		for j := 1; j <= n; j++ {
			CC[j] = -a.gapCost(open, j)
			DD[j] = CC[j] - open // effectively -inf for the recurrence
		}
		tAcc := -boundaryOpen
		for i := 1; i <= len(qh); i++ {
			s := CC[0]
			tAcc -= ext
			c := tAcc
			CC[0] = c
			e := tAcc - open
			for j := 1; j <= n; j++ {
				e = max(e, c-open) - ext
				DD[j] = max(DD[j], CC[j]-open) - ext
				c = max(DD[j], e, s+a.s.Matrix.Score(qh[i-1], lookup(j-1)))
				s = CC[j]
				CC[j] = c
			}
		}
		DD[0] = CC[0]
	}
	fwd(q[:mid], tb, func(j int) byte { return t[j] })

	// Reverse pass over q[mid:] and reversed t.
	RR := make([]int, n+1)
	SS := make([]int, n+1)
	CC, RR = RR, CC
	DD, SS = SS, DD
	fwd(reversed(q[mid:]), te, func(j int) byte { return t[n-1-j] })
	CC, RR = RR, CC
	DD, SS = SS, DD

	// Join: either the boundary is crossed between two aligned columns
	// (type 1) or inside a vertical gap (type 2, which refunds one gap
	// opening since both halves charged it).
	bestScore := CC[0] + RR[n]
	bestJ, bestType := 0, 1
	for j := 0; j <= n; j++ {
		if sc := CC[j] + RR[n-j]; sc > bestScore {
			bestScore, bestJ, bestType = sc, j, 1
		}
		if sc := DD[j] + SS[n-j] + open; sc > bestScore {
			bestScore, bestJ, bestType = sc, j, 2
		}
	}

	if bestType == 1 {
		a.diff(q[:mid], t[:bestJ], tb, open)
		a.diff(q[mid:], t[bestJ:], open, te)
	} else {
		// Rows mid-1 and mid sit inside the boundary-crossing gap.
		a.diff(q[:mid-1], t[:bestJ], tb, 0)
		a.del(q[mid-1 : mid+1])
		a.diff(q[mid+1:], t[bestJ:], 0, te)
	}
	return bestScore
}
