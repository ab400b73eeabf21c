// Package stats implements Karlin-Altschul statistics for Smith-Waterman
// search scores: expect values (E-values).
//
// A raw Smith-Waterman score S is only meaningful relative to the scoring
// system. Karlin-Altschul theory normalizes it with two parameters λ and K
// estimated for the (matrix, gap-penalty) pair:
//
//	bit score  S' = (λ·S − ln K) / ln 2
//	E-value    E  = m·n / 2^S'
//
// where m is the query length and n the total database residue count. The
// parameter table below carries the standard BLAST values for the schemes
// this repository ships; unknown gap settings fall back to the matrix's
// most conservative (smallest-λ) gapped entry, which overestimates E — the
// safe direction for a filter.
package stats

import (
	"fmt"
	"math"

	"repro/internal/score"
)

// Params are the Karlin-Altschul parameters of one scoring system.
type Params struct {
	Lambda float64
	K      float64
	H      float64 // relative entropy, bits/position (informational)
}

// entry keys the parameter table.
type entry struct {
	matrix       string
	open, extend int
}

// Standard BLAST parameter values (ungapped rows use open=0, extend=0).
var table = map[entry]Params{
	{"BLOSUM62", 0, 0}:  {Lambda: 0.3176, K: 0.134, H: 0.40},
	{"BLOSUM62", 11, 1}: {Lambda: 0.267, K: 0.041, H: 0.14},
	{"BLOSUM62", 10, 1}: {Lambda: 0.243, K: 0.024, H: 0.10},
	{"BLOSUM62", 10, 2}: {Lambda: 0.293, K: 0.047, H: 0.23},
	{"BLOSUM62", 9, 2}:  {Lambda: 0.286, K: 0.043, H: 0.21},
	{"BLOSUM62", 12, 1}: {Lambda: 0.283, K: 0.059, H: 0.19},
	{"BLOSUM50", 0, 0}:  {Lambda: 0.2318, K: 0.112, H: 0.34},
	{"BLOSUM50", 13, 2}: {Lambda: 0.177, K: 0.028, H: 0.10},
	{"BLOSUM50", 12, 2}: {Lambda: 0.172, K: 0.025, H: 0.10},
	{"BLOSUM50", 10, 3}: {Lambda: 0.174, K: 0.022, H: 0.10},
}

// Lookup returns the Karlin-Altschul parameters for a scheme. ok reports
// whether an exact (matrix, gap) entry existed; otherwise the returned
// params are the matrix's most conservative gapped entry (or the ungapped
// entry if no gapped one is known), and ok is false.
func Lookup(s score.Scheme) (Params, bool) {
	if s.Matrix == nil {
		return Params{}, false
	}
	name := s.Matrix.Name()
	if p, ok := table[entry{name, s.Gap.Open, s.Gap.Extend}]; ok {
		return p, true
	}
	// Fall back to the smallest λ among this matrix's entries.
	best := Params{}
	found := false
	for e, p := range table {
		if e.matrix != name {
			continue
		}
		if !found || p.Lambda < best.Lambda {
			best, found = p, true
		}
	}
	return best, false
}

// EValue returns the expected number of chance alignments scoring at least
// raw, for a query of m residues against a database of n total residues.
func (p Params) EValue(raw int, m int, n int64) float64 {
	if m <= 0 || n <= 0 {
		return math.Inf(1)
	}
	// E = K m n e^{-λS}.
	return p.K * float64(m) * float64(n) * math.Exp(-p.Lambda*float64(raw))
}

// Validate rejects degenerate parameters.
func (p Params) Validate() error {
	if p.Lambda <= 0 || p.K <= 0 {
		return fmt.Errorf("stats: invalid Karlin-Altschul params %+v", p)
	}
	return nil
}
