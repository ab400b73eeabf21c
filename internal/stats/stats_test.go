package stats

import (
	"math"
	"testing"

	"repro/internal/score"
	"repro/internal/seq"
)

func TestLookupExact(t *testing.T) {
	p, ok := Lookup(score.Scheme{Matrix: score.BLOSUM62, Gap: score.AffineGap(11, 1)})
	if !ok {
		t.Fatal("BLOSUM62 11/1 should be tabulated")
	}
	if p.Lambda != 0.267 || p.K != 0.041 {
		t.Errorf("params = %+v", p)
	}
	// The paper's default scheme must also be tabulated.
	if _, ok := Lookup(score.DefaultProtein()); !ok {
		t.Error("BLOSUM62 10/2 should be tabulated")
	}
}

func TestLookupFallback(t *testing.T) {
	p, ok := Lookup(score.Scheme{Matrix: score.BLOSUM62, Gap: score.AffineGap(99, 9)})
	if ok {
		t.Error("exotic gaps claimed exact")
	}
	if err := p.Validate(); err != nil {
		t.Errorf("fallback params unusable: %v", err)
	}
	// Fallback must be the most conservative (smallest λ) BLOSUM62 entry.
	for e, q := range table {
		if e.matrix == "BLOSUM62" && q.Lambda < p.Lambda {
			t.Errorf("fallback λ=%v not minimal (found %v)", p.Lambda, q.Lambda)
		}
	}
}

func TestLookupUnknownMatrix(t *testing.T) {
	m := score.NewMatchMismatch(seq.DNA, 1, -1)
	if p, ok := Lookup(score.Scheme{Matrix: m, Gap: score.LinearGap(2)}); ok || p.Validate() == nil {
		t.Error("unknown matrix should return no usable params")
	}
	if _, ok := Lookup(score.Scheme{}); ok {
		t.Error("nil matrix accepted")
	}
}

func TestEValueBehaviour(t *testing.T) {
	p, _ := Lookup(score.DefaultProtein())
	m, n := 300, int64(190_000_000)
	// Higher scores -> lower E.
	if p.EValue(50, m, n) <= p.EValue(300, m, n) {
		t.Error("E-value not decreasing in score")
	}
	// Bigger database -> higher E at fixed score.
	if p.EValue(100, m, n) >= p.EValue(100, m, 10*n) {
		t.Error("E-value not increasing in database size")
	}
	// A strong hit against SwissProt-scale search space is significant.
	if e := p.EValue(300, m, n); e > 1e-6 {
		t.Errorf("E(300) = %g, want tiny", e)
	}
	// A weak score is not.
	if e := p.EValue(30, m, n); e < 1 {
		t.Errorf("E(30) = %g, want >= 1", e)
	}
	if !math.IsInf(p.EValue(100, 0, n), 1) {
		t.Error("degenerate m should give +Inf")
	}
}

func TestValidate(t *testing.T) {
	if err := (Params{Lambda: 0.2, K: 0.05}).Validate(); err != nil {
		t.Error(err)
	}
	if err := (Params{}).Validate(); err == nil {
		t.Error("zero params accepted")
	}
}
