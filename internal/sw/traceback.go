package sw

import "repro/internal/score"

// dpState identifies which DP matrix a traceback step is in.
type dpState byte

const (
	stateH dpState = iota // match/mismatch matrix
	stateE                // gap-in-query matrix (horizontal moves)
	stateF                // gap-in-target matrix (vertical moves)
)

const negInf = -(1 << 30)

// Align computes an optimal Smith-Waterman local alignment of q vs t with a
// full O(mn) DP matrix and traceback (the paper's §II-A phase 2). With an
// affine scheme this is the Gotoh three-matrix variant.
func Align(q, t []byte, s score.Scheme) *Alignment {
	m, n := len(q), len(t)
	H, E, F := fullMatrices(q, t, s)

	best, bi, bj := 0, 0, 0
	for i := 1; i <= m; i++ {
		for j := 1; j <= n; j++ {
			if H[i][j] > best {
				best, bi, bj = H[i][j], i, j
			}
		}
	}
	a := &Alignment{Score: best}
	if best == 0 {
		return a
	}
	var qRow, tRow []byte // built in reverse
	i, j := bi, bj
	st := stateH
	for i > 0 || j > 0 {
		switch st {
		case stateH:
			if H[i][j] == 0 {
				goto done
			}
			switch {
			case H[i][j] == E[i][j]:
				st = stateE
			case H[i][j] == F[i][j]:
				st = stateF
			default: // diagonal
				qRow = append(qRow, q[i-1])
				tRow = append(tRow, t[j-1])
				i, j = i-1, j-1
			}
		case stateE:
			qRow = append(qRow, '-')
			tRow = append(tRow, t[j-1])
			if E[i][j] == H[i][j-1]-s.Gap.Open-s.Gap.Extend {
				st = stateH
			}
			j--
		case stateF:
			qRow = append(qRow, q[i-1])
			tRow = append(tRow, '-')
			if F[i][j] == H[i-1][j]-s.Gap.Open-s.Gap.Extend {
				st = stateH
			}
			i--
		}
	}
done:
	reverse(qRow)
	reverse(tRow)
	a.QueryRow, a.TargetRow = qRow, tRow
	a.QueryStart, a.QueryEnd = i, bi
	a.TargetStart, a.TargetEnd = j, bj
	return a
}

// fullMatrices fills the Gotoh H/E/F matrices of local alignment.
func fullMatrices(q, t []byte, s score.Scheme) (H, E, F [][]int) {
	m, n := len(q), len(t)
	H = make([][]int, m+1)
	E = make([][]int, m+1)
	F = make([][]int, m+1)
	for i := 0; i <= m; i++ {
		H[i] = make([]int, n+1)
		E[i] = make([]int, n+1)
		F[i] = make([]int, n+1)
	}
	open, ext := s.Gap.Open, s.Gap.Extend
	for j := 1; j <= n; j++ {
		E[0][j], F[0][j] = negInf, negInf
	}
	for i := 1; i <= m; i++ {
		E[i][0], F[i][0] = negInf, negInf
		for j := 1; j <= n; j++ {
			E[i][j] = max(H[i][j-1]-open-ext, E[i][j-1]-ext)
			F[i][j] = max(H[i-1][j]-open-ext, F[i-1][j]-ext)
			H[i][j] = max(H[i-1][j-1]+s.Matrix.Score(q[i-1], t[j-1]), E[i][j], F[i][j], 0)
		}
	}
	return H, E, F
}

func reverse(b []byte) {
	for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
		b[i], b[j] = b[j], b[i]
	}
}
