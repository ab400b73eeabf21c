package sched

import (
	"testing"
	"time"
)

func sec(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func newCoord(n int, cfg Config) (*Coordinator, []SlaveID) {
	c := NewCoordinator(mkTasks(n), cfg)
	ids := []SlaveID{
		c.Register(SlaveInfo{Name: "gpu0", Kind: KindGPU}, 0),
		c.Register(SlaveInfo{Name: "sse0", Kind: KindCPU}, 0),
	}
	return c, ids
}

func TestCoordinatorFirstAllocationOneEach(t *testing.T) {
	c, ids := newCoord(10, Config{Policy: &PSS{}})
	for _, id := range ids {
		tasks, replica := c.RequestWork(id, 0)
		if len(tasks) != 1 || replica {
			t.Fatalf("slave %d first allocation = %d tasks (replica=%v), want 1", id, len(tasks), replica)
		}
	}
	if c.Pool().Ready() != 8 || c.Pool().ExecutingCount() != 2 {
		t.Fatalf("pool counts wrong: %d %d", c.Pool().Ready(), c.Pool().ExecutingCount())
	}
}

func TestCoordinatorPSSAdaptsToSpeed(t *testing.T) {
	c, ids := newCoord(20, Config{Policy: &PSS{}})
	gpu, sse := ids[0], ids[1]
	// Feed speed observations: GPU 6000 cells/s, SSE 1000 cells/s.
	c.ProgressRate(gpu, 6000, 0, sec(1))
	c.ProgressRate(sse, 1000, 0, sec(1))
	tasks, _ := c.RequestWork(gpu, sec(1))
	if len(tasks) != 6 {
		t.Fatalf("GPU grant = %d, want 6", len(tasks))
	}
	tasks, _ = c.RequestWork(sse, sec(1))
	if len(tasks) != 1 {
		t.Fatalf("SSE grant = %d, want 1", len(tasks))
	}
}

func TestCoordinatorCompleteAndMerge(t *testing.T) {
	c, ids := newCoord(2, Config{Policy: SS{}})
	t0, _ := c.RequestWork(ids[0], 0)
	t1, _ := c.RequestWork(ids[1], 0)
	ok, cancel := c.Complete(ids[0], t0[0].ID, "r0", sec(1))
	if !ok || cancel != nil {
		t.Fatalf("Complete = %v %v", ok, cancel)
	}
	ok, _ = c.Complete(ids[1], t1[0].ID, "r1", sec(2))
	if !ok || !c.Done() {
		t.Fatal("job should be done")
	}
	res := c.Results()
	if len(res) != 2 || res[0].Task != 0 || res[1].Task != 1 {
		t.Fatalf("Results = %v", res)
	}
	if res[0].Payload != "r0" || res[0].Slave != ids[0] || res[0].At != sec(1) {
		t.Fatalf("result 0 = %+v", res[0])
	}
}

func TestWorkloadAdjustmentReplicaAndCancel(t *testing.T) {
	c, ids := newCoord(1, Config{Policy: SS{}, Adjust: true})
	gpu, sse := ids[0], ids[1]
	// SSE takes the only task; speeds become known.
	c.ProgressRate(gpu, 6000, 0, 0)
	c.ProgressRate(sse, 1000, 0, 0)
	tasks, _ := c.RequestWork(sse, 0)
	if len(tasks) != 1 {
		t.Fatal("setup failed")
	}
	// GPU asks: no ready tasks, adjustment clones the executing task
	// because the GPU would finish it far earlier (1000 cells: SSE ETA 1s,
	// GPU ETA ~0.17s).
	got, replica := c.RequestWork(gpu, sec(0.1))
	if len(got) != 1 || !replica || got[0].ID != tasks[0].ID {
		t.Fatalf("replica grant = %v (replica=%v)", got, replica)
	}
	// GPU finishes first; the SSE copy must be canceled.
	ok, cancel := c.Complete(gpu, got[0].ID, "fast", sec(0.3))
	if !ok || len(cancel) != 1 || cancel[0] != sse {
		t.Fatalf("Complete = %v cancel=%v", ok, cancel)
	}
	if !c.Done() {
		t.Fatal("job should be done after first completion")
	}
	// The SSE's late completion is discarded.
	ok, _ = c.Complete(sse, tasks[0].ID, "slow", sec(1))
	if ok {
		t.Fatal("late completion accepted")
	}
	if got := c.Results()[0].Payload; got != "fast" {
		t.Fatalf("merged payload = %v, want the first finisher's", got)
	}
}

func TestAdjustmentDeclinesWhenNoGain(t *testing.T) {
	// Fig. 5: an SSE core asking while an equally slow SSE core holds the
	// last task gains nothing, so the master does not replicate.
	c := NewCoordinator(mkTasks(1), Config{Policy: SS{}, Adjust: true})
	s1 := c.Register(SlaveInfo{Name: "sse1"}, 0)
	s2 := c.Register(SlaveInfo{Name: "sse2"}, 0)
	c.ProgressRate(s1, 1000, 0, 0)
	c.ProgressRate(s2, 1000, 0, 0)
	c.RequestWork(s1, 0)
	got, _ := c.RequestWork(s2, 0)
	if got != nil {
		t.Fatalf("equal-speed replica granted: %v", got)
	}
}

func TestAdjustmentDisabled(t *testing.T) {
	c, ids := newCoord(1, Config{Policy: SS{}, Adjust: false})
	c.RequestWork(ids[1], 0)
	got, _ := c.RequestWork(ids[0], 0)
	if got != nil {
		t.Fatalf("adjustment disabled but got %v", got)
	}
}

func TestAdjustmentUnknownSpeedsFallsBackToOldest(t *testing.T) {
	c := NewCoordinator(mkTasks(2), Config{Policy: SS{}, Adjust: true})
	s1 := c.Register(SlaveInfo{Name: "a"}, 0)
	s2 := c.Register(SlaveInfo{Name: "b"}, 0)
	s3 := c.Register(SlaveInfo{Name: "c"}, 0)
	c.RequestWork(s1, 0)        // task 0, started at 0
	c.RequestWork(s2, sec(0.5)) // task 1, started at 0.5
	got, replica := c.RequestWork(s3, sec(1))
	if len(got) != 1 || !replica || got[0].ID != 0 {
		t.Fatalf("fallback replica = %v, want oldest task 0", got)
	}
}

func TestAdjustmentNeverAssignsOwnTask(t *testing.T) {
	c := NewCoordinator(mkTasks(1), Config{Policy: SS{}, Adjust: true})
	s1 := c.Register(SlaveInfo{Name: "a"}, 0)
	first, _ := c.RequestWork(s1, 0)
	// Asking again while still holding the task means the Assign reply was
	// lost: the slave gets its own outstanding task back as a
	// retransmission (replica=false), never as an adjustment replica.
	got, replica := c.RequestWork(s1, sec(1))
	if replica {
		t.Fatalf("slave received its own task as replica: %v", got)
	}
	if len(got) != 1 || got[0].ID != first[0].ID {
		t.Fatalf("retransmission = %v, want outstanding task %v", got, first)
	}
}

func TestRequestRetransmitsLostGrant(t *testing.T) {
	c, ids := newCoord(2, Config{Policy: SS{}})
	first, _ := c.RequestWork(ids[0], 0)
	// The grant was recorded but the response never arrived; the slave asks
	// again and must receive the same task, not a second one.
	again, replica := c.RequestWork(ids[0], sec(1))
	if replica || len(again) != 1 || again[0].ID != first[0].ID {
		t.Fatalf("retransmission = %v (replica=%t), want %v", again, replica, first)
	}
	if log := c.AssignmentLog(); len(log) != 1 {
		t.Fatalf("retransmission polluted the assignment log: %v", log)
	}
	// Once the task completes the slave is genuinely idle again and the
	// next request grants fresh work.
	c.Complete(ids[0], first[0].ID, nil, sec(2))
	next, _ := c.RequestWork(ids[0], sec(3))
	if len(next) != 1 || next[0].ID == first[0].ID {
		t.Fatalf("post-completion grant = %v, want a fresh task", next)
	}
}

func TestSlaveDiedRequeuesTasks(t *testing.T) {
	c, ids := newCoord(2, Config{Policy: SS{}})
	tasks, _ := c.RequestWork(ids[0], 0)
	c.SlaveDied(ids[0])
	if c.Pool().StateOf(tasks[0].ID) != Ready {
		t.Fatal("dead slave's task not requeued")
	}
	// Dead slaves get nothing.
	if got, _ := c.RequestWork(ids[0], sec(1)); got != nil {
		t.Fatal("dead slave received work")
	}
	// The survivor picks the task back up.
	got, _ := c.RequestWork(ids[1], sec(1))
	if len(got) != 1 || got[0].ID != tasks[0].ID {
		t.Fatalf("survivor got %v", got)
	}
}

// A dead slave's tasks must return to the head of the ready FIFO in the
// order they were assigned, whatever the run: the paper tables and the
// simulator's same-seed fingerprint both depend on which survivor picks up
// which task. Repeated so that a requeue in map order fails with near
// certainty.
func TestSlaveDiedRequeuesInAssignmentOrder(t *testing.T) {
	for round := 0; round < 50; round++ {
		c, ids := newCoord(10, Config{Policy: &PSS{}})
		gpu, sse := ids[0], ids[1]
		c.ProgressRate(gpu, 4000, 0, sec(1))
		c.ProgressRate(sse, 1000, 0, sec(1))
		tasks, _ := c.RequestWork(gpu, sec(1))
		if len(tasks) != 4 {
			t.Fatalf("GPU grant = %d tasks, want 4", len(tasks))
		}
		c.SlaveDied(gpu)
		for i, task := range tasks {
			if got := c.pool.readyFIFO[i]; got != task.ID {
				t.Fatalf("round %d: ready FIFO head = %v, want the dead slave's tasks in assignment order %v",
					round, c.pool.readyFIFO[:len(tasks)], tasks)
			}
		}
	}
}

func TestAssignmentLog(t *testing.T) {
	c, ids := newCoord(3, Config{Policy: SS{}, Adjust: true})
	c.RequestWork(ids[0], 0)
	c.RequestWork(ids[1], sec(1))
	log := c.AssignmentLog()
	if len(log) != 2 || log[0].Slave != ids[0] || log[1].Time != sec(1) {
		t.Fatalf("log = %v", log)
	}
	if log[0].Replica {
		t.Error("normal grant marked as replica")
	}
}

func TestSpeedOfFallsBackToDeclared(t *testing.T) {
	c := NewCoordinator(mkTasks(1), Config{})
	id := c.Register(SlaveInfo{Name: "g", DeclaredSpeed: 123}, 0)
	if got := c.SpeedOf(id); got != 123 {
		t.Fatalf("SpeedOf = %v, want declared 123", got)
	}
	c.ProgressRate(id, 999, 0, sec(1))
	if got := c.SpeedOf(id); got != 999 {
		t.Fatalf("SpeedOf = %v, want observed 999", got)
	}
}

func TestSlaveKindString(t *testing.T) {
	if KindCPU.String() != "CPU" || KindGPU.String() != "GPU" || SlaveKind(5).String() == "" {
		t.Error("kind strings wrong")
	}
}

// TestProgressDeltaPath: a completion that reports cells but no measured
// rate feeds the speed history as a delta over the time since the last
// sample.
func TestProgressDeltaPath(t *testing.T) {
	c := NewCoordinator(mkTasks(4), Config{Policy: &PSS{}})
	id := c.Register(SlaveInfo{Name: "s"}, 0)
	tasks, _ := c.RequestWork(id, 0)
	c.CompleteWork(id, tasks[0].ID, nil, 2000, 0, sec(1))
	if got := c.SpeedOf(id); got != 2000 {
		t.Fatalf("SpeedOf after delta notifications = %v, want 2000", got)
	}
}

func TestCompleteByNonExecutorIsRejected(t *testing.T) {
	c, ids := newCoord(1, Config{Policy: SS{}})
	// Slave 1 never took the task; its completion must be discarded
	// without panicking and without finishing the task.
	ok, cancel := c.Complete(ids[1], 0, "forged", 0)
	if ok || cancel != nil {
		t.Fatalf("forged completion accepted: %v %v", ok, cancel)
	}
	if c.Pool().StateOf(0) != Ready {
		t.Fatal("task state corrupted by forged completion")
	}
	// The legitimate path still works afterwards.
	tasks, _ := c.RequestWork(ids[0], 0)
	if ok, _ := c.Complete(ids[0], tasks[0].ID, "real", sec(1)); !ok {
		t.Fatal("legitimate completion rejected")
	}
}
