package slave

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/wire"
)

// testBackoff is a realistic reconnect schedule. The tests never wait it
// out: sleeps route through a virtualSleeper, so the schedule is asserted
// on — instantly and deterministically — instead of shrunk to
// microseconds and raced against the wall clock.
var testBackoff = wire.Backoff{Base: 50 * time.Millisecond, Cap: 2 * time.Second, Jitter: 0.1}

// virtualSleeper replaces wall-clock sleeps with an instant, recorded
// virtual clock (Options.Sleep).
type virtualSleeper struct {
	mu     sync.Mutex
	now    time.Duration
	delays []time.Duration
}

func (v *virtualSleeper) sleep(d time.Duration) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.now += d
	v.delays = append(v.delays, d)
}

func (v *virtualSleeper) recorded() (time.Duration, []time.Duration) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now, append([]time.Duration(nil), v.delays...)
}

// dyingCaller forwards to a scripted master but starts failing every call
// after failAfter successful ones, simulating a connection that dies
// mid-session.
type dyingCaller struct {
	mu        sync.Mutex
	inner     wire.Caller
	failAfter int
	calls     int
}

func (d *dyingCaller) Call(req wire.Envelope) (wire.Envelope, error) {
	d.mu.Lock()
	d.calls++
	dead := d.calls > d.failAfter
	d.mu.Unlock()
	if dead {
		return wire.Envelope{}, fmt.Errorf("connection reset")
	}
	return d.inner.Call(req)
}

func (d *dyingCaller) Close() error { return nil }

func TestRunReconnectsAfterLostMaster(t *testing.T) {
	eng, specs := testEngine(t)
	m := &scriptedMaster{tasks: specs, doneAfter: len(specs)}
	// The first connection dies right after registration; the replacement
	// dial fails twice (master still restarting) before a healthy caller
	// comes back.
	first := &dyingCaller{inner: m, failAfter: 1}
	var dials, dialFailures int
	reconnect := func() (wire.Caller, error) {
		dials++
		if dials <= 2 {
			dialFailures++
			return nil, fmt.Errorf("connection refused")
		}
		return m, nil
	}
	vs := &virtualSleeper{}
	n, err := Run(first, eng, Options{
		NotifyEvery: time.Microsecond,
		Poll:        time.Millisecond,
		Reconnect:   reconnect,
		MaxRetries:  5,
		Backoff:     testBackoff,
		RetrySeed:   1,
		Sleep:       vs.sleep,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(specs) {
		t.Fatalf("completed %d tasks across reconnects, want %d", n, len(specs))
	}
	if dialFailures != 2 || dials != 3 {
		t.Fatalf("dials = %d (failures %d), want 3 with 2 failures", dials, dialFailures)
	}
	// One backoff sleep per reconnect attempt, escalating: the second
	// delay doubles the first (modulo ±10% jitter, which cannot mask a
	// doubling), and every delay respects the configured envelope.
	elapsed, delays := vs.recorded()
	if len(delays) != 3 {
		t.Fatalf("recorded %d backoff sleeps (%v), want one per dial (3)", len(delays), delays)
	}
	for i, d := range delays {
		if d < time.Duration(float64(testBackoff.Base)*0.9) || d > testBackoff.Cap {
			t.Errorf("delay %d = %v outside the backoff envelope [%v, %v]", i, d, testBackoff.Base, testBackoff.Cap)
		}
	}
	if delays[1] <= delays[0] {
		t.Errorf("backoff did not escalate: %v then %v", delays[0], delays[1])
	}
	if elapsed <= 0 {
		t.Error("no virtual time elapsed across reconnects")
	}
}

func TestRunGivesUpAfterMaxRetries(t *testing.T) {
	eng, _ := testEngine(t)
	dials := 0
	reconnect := func() (wire.Caller, error) {
		dials++
		return nil, fmt.Errorf("connection refused")
	}
	vs := &virtualSleeper{}
	_, err := Run(failCaller{err: fmt.Errorf("boom")}, eng, Options{
		Reconnect:  reconnect,
		MaxRetries: 3,
		Backoff:    testBackoff,
		RetrySeed:  1,
		Sleep:      vs.sleep,
	})
	if err == nil {
		t.Fatal("exhausted retries did not surface an error")
	}
	if !strings.Contains(err.Error(), "giving up") {
		t.Fatalf("error = %v, want a giving-up message", err)
	}
	if dials != 3 {
		t.Fatalf("%d reconnect attempts, want MaxRetries = 3", dials)
	}
	if _, delays := vs.recorded(); len(delays) != 3 {
		t.Fatalf("recorded %d backoff sleeps, want one per attempt (3)", len(delays))
	}
}

func TestRunFailureBudgetResetsOnProgress(t *testing.T) {
	// Each session makes one successful round trip before its connection
	// dies. Because the session progressed, the consecutive-failure budget
	// resets every time, so far more than MaxRetries reconnections succeed.
	eng, specs := testEngine(t)
	m := &scriptedMaster{tasks: specs, doneAfter: len(specs)}
	// failAfter 3 = register + request + complete: each session finishes
	// exactly one task, then its next call fails. With MaxRetries 1 and no
	// budget reset, the second reconnect would give up; the reset lets the
	// job ride out one outage per task.
	sessions := 0
	reconnect := func() (wire.Caller, error) {
		sessions++
		return &dyingCaller{inner: m, failAfter: 3}, nil
	}
	first, _ := reconnect()
	vs := &virtualSleeper{}
	n, err := Run(first, eng, Options{
		NotifyEvery: time.Hour, // no periodic notifications
		Poll:        time.Millisecond,
		Reconnect:   reconnect,
		MaxRetries:  1,
		Backoff:     testBackoff,
		RetrySeed:   1,
		Sleep:       vs.sleep,
	})
	if err != nil {
		t.Fatalf("Run = %v after %d sessions", err, sessions)
	}
	if n != len(specs) {
		t.Fatalf("completed %d, want %d", n, len(specs))
	}
	if sessions != len(specs) {
		t.Fatalf("%d sessions, want one per task (%d)", sessions, len(specs))
	}
	// Every outage is the first consecutive failure (the budget reset), so
	// no delay ever escalates beyond the first backoff step.
	if _, delays := vs.recorded(); len(delays) > 0 {
		maxFirst := time.Duration(float64(testBackoff.Base) * 1.1)
		for i, d := range delays {
			if d > maxFirst {
				t.Errorf("delay %d = %v escalated beyond the first step (%v); failure budget did not reset", i, d, maxFirst)
			}
		}
	}
}

func TestCompleteCarriesFinalDelta(t *testing.T) {
	// With notifications effectively disabled, the whole task's cells must
	// ride on the CompleteMsg; before the fix they were silently lost.
	eng, specs := testEngine(t)
	type final struct {
		cells int64
		rate  float64
	}
	var mu sync.Mutex
	finals := map[sched.TaskID]final{}
	m := &scriptedMaster{tasks: specs, doneAfter: len(specs)}
	recording := callerFunc(func(req wire.Envelope) (wire.Envelope, error) {
		if req.Complete != nil {
			mu.Lock()
			finals[req.Complete.Task] = final{req.Complete.Cells, req.Complete.Rate}
			mu.Unlock()
		}
		return m.Call(req)
	})
	if _, err := Run(recording, eng, Options{NotifyEvery: time.Hour}); err != nil {
		t.Fatal(err)
	}
	for _, spec := range specs {
		f, ok := finals[spec.ID]
		if !ok {
			t.Fatalf("task %d never completed", spec.ID)
		}
		if f.cells != spec.Cells {
			t.Errorf("task %d final delta = %d cells, want the full task (%d)", spec.ID, f.cells, spec.Cells)
		}
		if f.rate <= 0 {
			t.Errorf("task %d final rate = %v, want > 0", spec.ID, f.rate)
		}
	}
}
