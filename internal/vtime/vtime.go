// Package vtime provides a deterministic discrete-event simulator.
//
// The paper's evaluation measures *when* heterogeneous processing elements
// finish tasks under different allocation policies. Reproducing those
// experiments without the original GPUs requires a virtual clock: events
// (task completions, progress notifications, message deliveries) are
// executed in strict timestamp order, and simulated durations are computed
// from calibrated processing-element speed models instead of wall time.
//
// Determinism: events at equal timestamps run in scheduling order (a
// monotonic sequence number breaks ties), so a simulation is a pure function
// of its inputs.
package vtime

import (
	"container/heap"
	"fmt"
	"time"
)

// Event is a scheduled callback. Cancel prevents a pending event from
// firing; canceling an already-fired event is a no-op.
type Event struct {
	at       time.Duration
	seq      uint64
	fn       func()
	canceled bool
	index    int // heap index, -1 once popped
}

// Cancel prevents the event from firing.
func (e *Event) Cancel() { e.canceled = true }

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// Simulator is a discrete-event executor with a virtual clock starting at 0.
// It is not safe for concurrent use: simulations are single-threaded by
// design so that they are reproducible.
type Simulator struct {
	now    time.Duration
	seq    uint64
	events eventHeap
	fired  uint64
}

// New returns a simulator with the clock at zero.
func New() *Simulator { return &Simulator{} }

// Now returns the current virtual time.
func (s *Simulator) Now() time.Duration { return s.now }

// Schedule runs fn at virtual time at. Scheduling in the past panics: it is
// always a logic error in a causal simulation.
func (s *Simulator) Schedule(at time.Duration, fn func()) *Event {
	if at < s.now {
		panic(fmt.Sprintf("vtime: scheduling at %v before now %v", at, s.now))
	}
	e := &Event{at: at, seq: s.seq, fn: fn}
	s.seq++
	heap.Push(&s.events, e)
	return e
}

// After runs fn d from now. Negative d panics.
func (s *Simulator) After(d time.Duration, fn func()) *Event {
	return s.Schedule(s.now+d, fn)
}

// Step fires the next pending event, if any, advancing the clock to its
// timestamp. It reports whether an event fired.
func (s *Simulator) Step() bool {
	for len(s.events) > 0 {
		e := heap.Pop(&s.events).(*Event)
		if e.canceled {
			continue
		}
		s.now = e.at
		s.fired++
		e.fn()
		return true
	}
	return false
}

// Run fires events until none remain. maxEvents bounds the run to protect
// against runaway event loops; <= 0 means no bound. It returns the number of
// events fired and an error if the bound was hit.
func (s *Simulator) Run(maxEvents uint64) (uint64, error) {
	start := s.fired
	for s.Step() {
		if maxEvents > 0 && s.fired-start >= maxEvents {
			if len(s.events) > 0 {
				return s.fired - start, fmt.Errorf("vtime: event bound %d reached with %d events pending at t=%v",
					maxEvents, len(s.events), s.now)
			}
		}
	}
	return s.fired - start, nil
}
