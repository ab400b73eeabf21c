package wire

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// This file implements seeded fault injection for robustness tests in two
// layers. RuleSet is the pure decision engine: given a message kind it
// decides — deterministically from a seed — whether a fault fires and
// which one. FaultCaller executes those decisions on the wall clock around
// any transport (sleeping for delays, blocking for hangs); the
// deterministic cluster simulator (internal/sim) drives the same RuleSet
// but executes the decisions as virtual-time events instead. The master
// and slave test suites use the caller to prove that lease expiry rescues
// hung slaves, that killed slaves requeue deterministically, and that a
// reconnecting slave double-completes nothing.

// ErrInjected is the transport error produced by FaultError and FaultDrop
// rules (optionally wrapped); match it with errors.Is.
var ErrInjected = errors.New("wire: injected fault")

// MsgKind classifies a request envelope for fault-rule matching.
type MsgKind int

const (
	// AnyMsg matches every request.
	AnyMsg MsgKind = iota
	// RegisterKind matches RegisterMsg requests.
	RegisterKind
	// RequestKind matches RequestMsg requests.
	RequestKind
	// ProgressKind matches ProgressMsg requests.
	ProgressKind
	// CompleteKind matches CompleteMsg requests.
	CompleteKind
)

// KindOf classifies a request envelope.
func KindOf(req Envelope) MsgKind {
	switch {
	case req.Register != nil:
		return RegisterKind
	case req.Request != nil:
		return RequestKind
	case req.Progress != nil:
		return ProgressKind
	case req.Complete != nil:
		return CompleteKind
	default:
		return AnyMsg
	}
}

// FaultAction is what happens to a matched call.
type FaultAction int

const (
	// FaultError fails the call without delivering it: the request never
	// reaches the master (a send on a dead connection).
	FaultError FaultAction = iota
	// FaultHang blocks the call until the caller is closed, then fails it:
	// the hung-slave scenario, where the process lives and the socket stays
	// open but nothing progresses.
	FaultHang
	// FaultDelay sleeps Rule.Delay, then passes the call through: a slow
	// link or a stalled peer that eventually answers.
	FaultDelay
	// FaultDrop delivers the request but loses the response: the master's
	// state changes (it may have accepted a completion) while the slave
	// sees a failure — the classic at-least-once duplication hazard.
	FaultDrop
	// FaultDup delivers the request twice: a retransmit whose original also
	// arrived. The master dispatches both copies (exercising its
	// duplicate-completion and double-registration protections); the caller
	// sees the second response.
	FaultDup
)

// Rule selects calls and assigns them a fault. Matching calls are counted
// per rule; the fault applies to matching calls after the first After and
// for at most Count of them (0 = unlimited), each with probability Prob
// (0 or >=1 = always). The first rule that matches and fires wins.
type Rule struct {
	Kind   MsgKind
	Action FaultAction
	After  int
	Count  int
	Prob   float64
	Delay  time.Duration // used by FaultDelay
}

// RuleSet is the deterministic decision half of fault injection: it
// matches calls against rules and decides which fault (if any) fires,
// drawing probabilistic decisions from an explicitly seeded generator so a
// run is a pure function of its seed. It performs no sleeping or blocking
// itself — executing the decided fault is the caller's business, which is
// what lets the virtual-time simulator reuse it. Not safe for concurrent
// use; FaultCaller serializes access under its own mutex.
type RuleSet struct {
	rules   []Rule
	rng     *rand.Rand
	matched []int // matching-call count per rule
	fired   []int // fault count per rule
}

// NewRuleSet builds a decision engine over the rules; seed drives the
// probabilistic rules so runs are reproducible.
func NewRuleSet(seed int64, rules ...Rule) *RuleSet {
	return &RuleSet{
		rules:   rules,
		rng:     rand.New(rand.NewSource(seed)),
		matched: make([]int, len(rules)),
		fired:   make([]int, len(rules)),
	}
}

// Next decides the fate of one call of kind k: the first rule that matches
// and fires wins (fired = true), returning its action and delay.
func (rs *RuleSet) Next(k MsgKind) (action FaultAction, delay time.Duration, fired bool) {
	for i, r := range rs.rules {
		if r.Kind != AnyMsg && r.Kind != k {
			continue
		}
		n := rs.matched[i]
		rs.matched[i]++
		if n < r.After {
			continue
		}
		if r.Count > 0 && rs.fired[i] >= r.Count {
			continue
		}
		if r.Prob > 0 && r.Prob < 1 && rs.rng.Float64() >= r.Prob {
			continue
		}
		rs.fired[i]++
		return r.Action, r.Delay, true
	}
	return 0, 0, false
}

// Fired returns how many times rule i fired its fault.
func (rs *RuleSet) Fired(i int) int { return rs.fired[i] }

// FaultCaller wraps a Caller with seeded fault injection. It is safe for
// the sequential use the Caller contract requires, plus a concurrent
// Close to release hung calls.
type FaultCaller struct {
	inner Caller

	mu    sync.Mutex
	rules *RuleSet

	closeOnce sync.Once
	closed    chan struct{}
}

// NewFaultCaller wraps inner with the given rules; seed drives the
// probabilistic rules so runs are reproducible.
func NewFaultCaller(inner Caller, seed int64, rules ...Rule) *FaultCaller {
	return &FaultCaller{
		inner:  inner,
		rules:  NewRuleSet(seed, rules...),
		closed: make(chan struct{}),
	}
}

// Fired returns how many times rule i injected its fault.
func (f *FaultCaller) Fired(i int) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rules.Fired(i)
}

// Call implements Caller, applying the first matching rule that fires.
func (f *FaultCaller) Call(req Envelope) (Envelope, error) {
	k := KindOf(req)
	f.mu.Lock()
	action, delay, fired := f.rules.Next(k)
	f.mu.Unlock()
	if !fired {
		return f.inner.Call(req)
	}

	switch action {
	case FaultError:
		return Envelope{}, fmt.Errorf("%w: %v lost", ErrInjected, k)
	case FaultHang:
		<-f.closed
		return Envelope{}, fmt.Errorf("%w: hung call released by close", ErrInjected)
	case FaultDelay:
		select {
		case <-time.After(delay):
		case <-f.closed:
			return Envelope{}, fmt.Errorf("%w: closed while delayed", ErrInjected)
		}
	case FaultDrop:
		if _, err := f.inner.Call(req); err != nil {
			return Envelope{}, err
		}
		return Envelope{}, fmt.Errorf("%w: %v response dropped", ErrInjected, k)
	case FaultDup:
		if _, err := f.inner.Call(req); err != nil {
			return Envelope{}, err
		}
	}
	return f.inner.Call(req)
}

// Close implements Caller, releasing any hung or delayed call first.
func (f *FaultCaller) Close() error {
	f.closeOnce.Do(func() { close(f.closed) })
	return f.inner.Close()
}

// String returns the kind name for error messages.
func (k MsgKind) String() string {
	switch k {
	case RegisterKind:
		return "Register"
	case RequestKind:
		return "Request"
	case ProgressKind:
		return "Progress"
	case CompleteKind:
		return "Complete"
	default:
		return "Any"
	}
}
