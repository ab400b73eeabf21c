package sched

import (
	"math"
	"testing"
	"time"
)

func TestHistoryWeightedMean(t *testing.T) {
	h := NewHistory(3)
	if _, ok := h.Speed(); ok {
		t.Fatal("empty history reported a speed")
	}
	h.ObserveRate(100, 0)
	v, ok := h.Speed()
	if !ok || v != 100 {
		t.Fatalf("single sample speed = %v %v", v, ok)
	}
	h.ObserveRate(200, time.Second)
	// weights: newest(200)*3? window=3: newest weight 3, older weight 2:
	// (3*200 + 2*100)/5 = 160
	v, _ = h.Speed()
	if math.Abs(v-160) > 1e-9 {
		t.Fatalf("two-sample weighted mean = %v, want 160", v)
	}
	// Fill past the window; the first sample must fall out.
	h.ObserveRate(300, 2*time.Second)
	h.ObserveRate(400, 3*time.Second)
	// window samples newest->oldest: 400,300,200 weights 3,2,1
	want := (3.0*400 + 2*300 + 1*200) / 6
	v, _ = h.Speed()
	if math.Abs(v-want) > 1e-9 {
		t.Fatalf("windowed mean = %v, want %v", v, want)
	}
}

func TestHistoryObserveDeltas(t *testing.T) {
	h := NewHistory(4)
	h.Observe(0, 0)                // anchors the timebase
	h.Observe(500, time.Second)    // 500 cells/s
	h.Observe(1000, 2*time.Second) // 1000 cells/s
	v, ok := h.Speed()
	if !ok {
		t.Fatal("no speed after observations")
	}
	// weights 4 (newest=1000) and 3 (500): (4000+1500)/7
	want := (4.0*1000 + 3*500) / 7
	if math.Abs(v-want) > 1e-9 {
		t.Fatalf("speed = %v, want %v", v, want)
	}
	// Garbage notifications are ignored.
	h.Observe(-5, 3*time.Second)
	h.Observe(100, 3*time.Second) // zero elapsed
	if v2, _ := h.Speed(); v2 != v {
		t.Fatal("invalid notifications changed the estimate")
	}
}

func TestHistoryDefaultOmega(t *testing.T) {
	h := NewHistory(0)
	if h.omega != DefaultOmega {
		t.Fatalf("omega = %d, want default %d", h.omega, DefaultOmega)
	}
}

func TestSSGrantsOne(t *testing.T) {
	p := SS{}
	if got := p.Grant(Request{Ready: 10}); got != 1 {
		t.Errorf("SS grant = %d, want 1", got)
	}
	if got := p.Grant(Request{Ready: 0}); got != 0 {
		t.Errorf("SS grant on empty = %d, want 0", got)
	}
	if p.Name() != "SS" {
		t.Error("name")
	}
}

func TestPSSFirstAllocationIsOne(t *testing.T) {
	p := &PSS{}
	req := Request{Slave: 0, Ready: 20, Slaves: 4, Speeds: make([]float64, 4)}
	if got := p.Grant(req); got != 1 {
		t.Errorf("PSS with no history = %d, want 1", got)
	}
}

func TestPSSFig5Ratio(t *testing.T) {
	// The paper's Fig. 5 walkthrough: a GPU measured 6x faster than the
	// SSE cores receives 6 tasks per request.
	p := &PSS{}
	req := Request{Slave: 0, Ready: 16, Slaves: 4, Speeds: []float64{6000, 1000, 1000, 1000}}
	if got := p.Grant(req); got != 6 {
		t.Errorf("PSS grant = %d, want 6", got)
	}
	// The slow cores get 1.
	req.Slave = 2
	if got := p.Grant(req); got != 1 {
		t.Errorf("PSS slow grant = %d, want 1", got)
	}
}

func TestPSSClampsToReady(t *testing.T) {
	p := &PSS{}
	req := Request{Slave: 0, Ready: 3, Slaves: 2, Speeds: []float64{9000, 1000}}
	if got := p.Grant(req); got != 3 {
		t.Errorf("PSS grant = %d, want clamp to 3", got)
	}
}

func TestPSSMaxBurst(t *testing.T) {
	p := &PSS{MaxBurst: 4}
	req := Request{Slave: 0, Ready: 100, Slaves: 2, Speeds: []float64{9000, 1000}}
	if got := p.Grant(req); got != 4 {
		t.Errorf("PSS burst-capped grant = %d, want 4", got)
	}
}

func TestPSSUnknownOthers(t *testing.T) {
	// Only the requester has history: it is also the slowest known, Φ=1.
	p := &PSS{}
	req := Request{Slave: 0, Ready: 10, Slaves: 3, Speeds: []float64{5000, 0, 0}}
	if got := p.Grant(req); got != 1 {
		t.Errorf("PSS grant = %d, want 1", got)
	}
}

func TestFixedEvenSplit(t *testing.T) {
	p := &Fixed{}
	base := Request{Total: 20, Slaves: 4}
	ready := 20
	var got []int
	for s := 0; s < 4; s++ {
		n := p.Grant(Request{Slave: SlaveID(s), Ready: ready, Total: base.Total, Slaves: base.Slaves})
		got = append(got, n)
		ready -= n
	}
	if got[0] != 5 || got[1] != 5 || got[2] != 5 || got[3] != 5 {
		t.Errorf("Fixed split = %v, want 5 each", got)
	}
	if n := p.Grant(Request{Slave: 0, Ready: ready, Total: 20, Slaves: 4}); n != 0 {
		t.Errorf("Fixed second request = %d, want 0", n)
	}
}

func TestFixedRemainderToLast(t *testing.T) {
	p := &Fixed{}
	ready := 10
	var got []int
	for s := 0; s < 3; s++ {
		n := p.Grant(Request{Slave: SlaveID(s), Ready: ready, Total: 10, Slaves: 3})
		got = append(got, n)
		ready -= n
	}
	if got[0]+got[1]+got[2] != 10 {
		t.Errorf("Fixed split %v does not cover all tasks", got)
	}
}

func TestWFixedProportionalSplit(t *testing.T) {
	p := &WFixed{}
	decl := []float64{6000, 1000, 1000}
	ready := 16
	var got []int
	for s := 0; s < 3; s++ {
		n := p.Grant(Request{Slave: SlaveID(s), Ready: ready, Total: 16, Slaves: 3, DeclaredSpeeds: decl})
		got = append(got, n)
		ready -= n
	}
	if got[0] != 12 {
		t.Errorf("WFixed fast share = %d, want 12 (6/8 of 16)", got[0])
	}
	if got[0]+got[1]+got[2] != 16 {
		t.Errorf("WFixed split %v does not cover all tasks", got)
	}
}

func TestWFixedNoDeclarationsFallsBack(t *testing.T) {
	p := &WFixed{}
	n := p.Grant(Request{Slave: 0, Ready: 9, Total: 9, Slaves: 3, DeclaredSpeeds: []float64{0, 0, 0}})
	if n != 3 {
		t.Errorf("WFixed fallback = %d, want even share 3", n)
	}
}

func TestNewPolicy(t *testing.T) {
	for _, name := range []string{"SS", "pss", "Fixed", "WFIXED", "PSS:4"} {
		if _, err := NewPolicy(name); err != nil {
			t.Errorf("NewPolicy(%q): %v", name, err)
		}
	}
	if _, err := NewPolicy("magic"); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := NewPolicy("PSS:x"); err == nil {
		t.Error("bad PSS burst accepted")
	}
	p, _ := NewPolicy("PSS:7")
	if p.(*PSS).MaxBurst != 7 {
		t.Error("PSS burst not parsed")
	}
}

func TestPolicyNames(t *testing.T) {
	if (&PSS{}).Name() != "PSS" || (&Fixed{}).Name() != "Fixed" || (&WFixed{}).Name() != "WFixed" {
		t.Error("policy names wrong")
	}
}
