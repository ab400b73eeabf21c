package sched

import (
	"testing"
	"time"

	"repro/internal/vtime"
)

func TestExpireReapsSilentSlave(t *testing.T) {
	c := NewCoordinator(mkTasks(2), Config{Policy: SS{}})
	quiet := c.Register(SlaveInfo{Name: "quiet"}, 0)
	chatty := c.Register(SlaveInfo{Name: "chatty"}, 0)
	tasks, _ := c.RequestWork(quiet, 0)
	if len(tasks) != 1 {
		t.Fatal("setup failed")
	}
	chattyTasks, _ := c.RequestWork(chatty, 0)

	// Within the lease nobody expires.
	if got := c.Expire(sec(5), sec(10)); got != nil {
		t.Fatalf("expired %v inside the lease", got)
	}
	// The chatty slave keeps notifying; the quiet one goes silent.
	c.ProgressRate(chatty, 100, 100, sec(8))
	got := c.Expire(sec(11), sec(10))
	if len(got) != 1 || got[0] != quiet {
		t.Fatalf("Expire = %v, want [%d]", got, quiet)
	}
	if !c.Dead(quiet) || c.Dead(chatty) {
		t.Fatal("dead flags wrong after expiry")
	}
	// The hung slave's task went back to ready and the survivor picks it up.
	if c.Pool().StateOf(tasks[0].ID) != Ready {
		t.Fatal("expired slave's task not requeued")
	}
	if w, _ := c.RequestWork(quiet, sec(12)); w != nil {
		t.Fatal("expired slave still receives work")
	}
	// The survivor finishes its own task (a busy slave asking again would
	// only get a retransmission) and then picks the requeued one up.
	c.Complete(chatty, chattyTasks[0].ID, nil, sec(12))
	w, _ := c.RequestWork(chatty, sec(12))
	if len(w) != 1 || w[0].ID != tasks[0].ID {
		t.Fatalf("survivor got %v, want the requeued task", w)
	}
	// Idempotent: the already-dead slave never expires twice (the chatty
	// one, last heard at 12s, is still within its lease here).
	if got := c.Expire(sec(13), sec(10)); got != nil {
		t.Fatalf("second Expire = %v", got)
	}
}

func TestExpireDisabledAndContactRefresh(t *testing.T) {
	c := NewCoordinator(mkTasks(1), Config{Policy: SS{}})
	id := c.Register(SlaveInfo{Name: "s"}, 0)
	if got := c.Expire(sec(100), 0); got != nil {
		t.Fatalf("lease 0 expired %v", got)
	}
	// Every protocol interaction refreshes the lease.
	c.RequestWork(id, sec(5))
	if got := c.LastContact(id); got != sec(5) {
		t.Fatalf("LastContact after RequestWork = %v", got)
	}
	c.ProgressRate(id, 10, 10, sec(6))
	if got := c.LastContact(id); got != sec(6) {
		t.Fatalf("LastContact after ProgressRate = %v", got)
	}
	c.Complete(id, 0, nil, sec(7))
	if got := c.LastContact(id); got != sec(7) {
		t.Fatalf("LastContact after Complete = %v", got)
	}
	if got := c.Expire(sec(8), sec(10)); got != nil {
		t.Fatalf("fresh slave expired: %v", got)
	}
}

func TestDeadSlaveNotificationsDiscarded(t *testing.T) {
	c := NewCoordinator(mkTasks(1), Config{Policy: SS{}})
	id := c.Register(SlaveInfo{Name: "s", DeclaredSpeed: 50}, 0)
	c.SlaveDied(id)
	c.ProgressRate(id, 999, 100, sec(1))
	if got := c.SpeedOf(id); got != 50 {
		t.Fatalf("dead slave's notifications observed: SpeedOf = %v", got)
	}
	if got := c.LastContact(id); got != 0 {
		t.Fatalf("dead slave's lastContact refreshed to %v", got)
	}
}

// TestCompleteWorkCreditsFinalDelta is the regression test for the lost
// final progress delta: a task completed between notifications must still
// feed the speed estimator and the backlog credit.
func TestCompleteWorkCreditsFinalDelta(t *testing.T) {
	c := NewCoordinator(mkTasks(2), Config{Policy: SS{}})
	id := c.Register(SlaveInfo{Name: "s"}, 0)
	tasks, _ := c.RequestWork(id, 0)
	// No periodic notification ever fired (short task); the completion
	// carries the whole task as its final delta.
	ok, _ := c.CompleteWork(id, tasks[0].ID, nil, 1000, 2000, sec(0.5))
	if !ok {
		t.Fatal("completion rejected")
	}
	if got := c.SpeedOf(id); got != 2000 {
		t.Fatalf("SpeedOf after CompleteWork = %v, want the final-delta rate 2000", got)
	}
	// Without a rate the delta still lands as an Observe sample measured
	// against the registration anchor.
	c2 := NewCoordinator(mkTasks(1), Config{Policy: SS{}})
	id2 := c2.Register(SlaveInfo{Name: "s2"}, sec(1))
	ts, _ := c2.RequestWork(id2, sec(1))
	c2.CompleteWork(id2, ts[0].ID, nil, 1000, 0, sec(2))
	if got := c2.SpeedOf(id2); got != 1000 {
		t.Fatalf("SpeedOf = %v, want 1000 cells over the 1s since registration", got)
	}
	// A forged CompleteWork from a non-executor credits nothing.
	c3 := NewCoordinator(mkTasks(1), Config{Policy: SS{}})
	id3 := c3.Register(SlaveInfo{Name: "s3"}, 0)
	if ok, _ := c3.CompleteWork(id3, 0, nil, 500, 500, sec(1)); ok {
		t.Fatal("forged completion accepted")
	}
	if got := c3.SpeedOf(id3); got != 0 {
		t.Fatalf("forged completion credited a speed sample: %v", got)
	}
}

// TestHistoryAnchoredAtRegistration is the regression test for the
// deflated first PSS sample: a slave registering late must have its first
// delta divided by time since registration, not time since job start.
func TestHistoryAnchoredAtRegistration(t *testing.T) {
	c := NewCoordinator(mkTasks(1), Config{Policy: &PSS{}})
	// Registers 100 s into the job, then reports 1000 cells one second
	// later. The buggy timebase (job start) would yield ~9.9 cells/s.
	id := c.Register(SlaveInfo{Name: "late"}, sec(100))
	tasks, _ := c.RequestWork(id, sec(100))
	c.CompleteWork(id, tasks[0].ID, nil, 1000, 0, sec(101))
	if got := c.SpeedOf(id); got != 1000 {
		t.Fatalf("first sample = %v cells/s, want 1000 (anchored at registration)", got)
	}
}

func TestHistoryAnchor(t *testing.T) {
	h := NewHistory(4)
	h.Anchor(sec(10))
	h.Observe(500, sec(11))
	if v, ok := h.Speed(); !ok || v != 500 {
		t.Fatalf("Speed = %v %v, want 500", v, ok)
	}
	// Un-anchored first Observe only anchors — no sample from a dubious
	// division by absolute time.
	h2 := NewHistory(4)
	h2.Observe(700, sec(7))
	if _, ok := h2.Speed(); ok {
		t.Fatal("un-anchored first notification produced a sample")
	}
	h2.Observe(300, sec(8))
	if v, _ := h2.Speed(); v != 300 {
		t.Fatalf("second sample = %v, want 300", v)
	}
}

// TestLeaseExpiryUnderVirtualClock drives the failure detector the way
// the wall-clock master does — a recurring lease/4 tick — but from a
// vtime event loop, so the timing-sensitive scenario (one slave notifying
// on schedule, one going silent mid-run) runs instantly and reproduces
// exactly. This is the discipline the cluster simulator (internal/sim)
// generalizes; the test pins the minimal version against the coordinator
// alone.
func TestLeaseExpiryUnderVirtualClock(t *testing.T) {
	const lease = 2 * time.Second
	c := NewCoordinator(mkTasks(4), Config{Policy: SS{}})
	chatty := c.Register(SlaveInfo{Name: "chatty"}, 0)
	quiet := c.Register(SlaveInfo{Name: "quiet"}, 0)
	c.RequestWork(chatty, 0)
	quietTasks, _ := c.RequestWork(quiet, 0)

	sim := vtime.New()
	type expiry struct {
		id SlaveID
		at time.Duration
	}
	var expired []expiry
	var tick func()
	tick = func() {
		for _, id := range c.Expire(sim.Now(), lease) {
			expired = append(expired, expiry{id, sim.Now()})
		}
		if sim.Now() < 10*time.Second {
			sim.After(lease/4, tick)
		}
	}
	sim.After(lease/4, tick)

	// The chatty slave notifies every 500ms for the whole horizon; the
	// quiet one falls silent after one notification at 600ms.
	var notify func()
	notify = func() {
		c.ProgressRate(chatty, 1000, 500, sim.Now())
		if sim.Now() < 10*time.Second {
			sim.After(500*time.Millisecond, notify)
		}
	}
	sim.After(500*time.Millisecond, notify)
	sim.Schedule(600*time.Millisecond, func() {
		c.ProgressRate(quiet, 1000, 500, sim.Now())
	})

	if _, err := sim.Run(10000); err != nil {
		t.Fatal(err)
	}
	if len(expired) != 1 || expired[0].id != quiet {
		t.Fatalf("expired = %v, want exactly the quiet slave", expired)
	}
	// Silence began at 600ms; the first tick past 600ms+lease is at 3s.
	if got := expired[0].at; got != 3*time.Second {
		t.Fatalf("quiet slave expired at %v, want the first tick after its lease ran out (3s)", got)
	}
	if c.Dead(chatty) {
		t.Fatal("chatty slave reaped despite notifying inside every lease window")
	}
	if c.Pool().StateOf(quietTasks[0].ID) != Ready {
		t.Fatal("expired slave's task not requeued")
	}
}
