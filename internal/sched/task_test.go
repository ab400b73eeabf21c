package sched

import (
	"testing"
	"time"
)

func mkTasks(n int) []Task {
	out := make([]Task, n)
	for i := range out {
		out[i] = Task{QueryID: string(rune('a' + i)), Cells: 1000}
	}
	return out
}

func TestPoolLifecycle(t *testing.T) {
	p := NewPool(mkTasks(3))
	if p.Len() != 3 || p.Ready() != 3 || p.ExecutingCount() != 0 || p.Finished() != 0 {
		t.Fatalf("fresh pool counts wrong: %d %d %d", p.Ready(), p.ExecutingCount(), p.Finished())
	}
	got := p.TakeReady(2, 0, 0)
	if len(got) != 2 || got[0].ID != 0 || got[1].ID != 1 {
		t.Fatalf("TakeReady = %v", got)
	}
	if p.Ready() != 1 || p.ExecutingCount() != 2 {
		t.Fatalf("counts after take: %d %d", p.Ready(), p.ExecutingCount())
	}
	if p.StateOf(0) != Executing || p.StateOf(2) != Ready {
		t.Fatal("states wrong after take")
	}
	first, others := p.Complete(0, 0, time.Second)
	if !first || others != nil {
		t.Fatalf("Complete = %v %v", first, others)
	}
	if p.Finished() != 1 || p.Done() {
		t.Fatal("finished accounting wrong")
	}
	sid, at, ok := p.FinishedBy(0)
	if !ok || sid != 0 || at != time.Second {
		t.Fatalf("FinishedBy = %v %v %v", sid, at, ok)
	}
	if _, _, ok := p.FinishedBy(1); ok {
		t.Fatal("FinishedBy on executing task should be !ok")
	}
}

func TestPoolTakeReadyClamps(t *testing.T) {
	p := NewPool(mkTasks(2))
	if got := p.TakeReady(10, 0, 0); len(got) != 2 {
		t.Fatalf("TakeReady(10) = %d tasks", len(got))
	}
	if got := p.TakeReady(1, 0, 0); got != nil {
		t.Fatalf("TakeReady on empty = %v", got)
	}
	if got := p.TakeReady(0, 0, 0); got != nil {
		t.Fatalf("TakeReady(0) = %v", got)
	}
}

func TestPoolReplicaAndFirstWins(t *testing.T) {
	p := NewPool(mkTasks(1))
	p.TakeReady(1, 0, 0)
	p.AddExecutor(0, 1, time.Second)
	if n := len(p.Executors(0)); n != 2 {
		t.Fatalf("executors = %d, want 2", n)
	}
	first, others := p.Complete(0, 1, 2*time.Second)
	if !first || len(others) != 1 || others[0] != 0 {
		t.Fatalf("Complete = %v %v", first, others)
	}
	// The loser's completion is ignored.
	first, others = p.Complete(0, 0, 3*time.Second)
	if first || others != nil {
		t.Fatalf("second Complete = %v %v", first, others)
	}
	if sid, _, _ := p.FinishedBy(0); sid != 1 {
		t.Fatalf("FinishedBy = %d, want 1", sid)
	}
	if !p.Done() {
		t.Fatal("pool should be done")
	}
}

func TestPoolAddExecutorPanicsOnReady(t *testing.T) {
	p := NewPool(mkTasks(1))
	defer func() {
		if recover() == nil {
			t.Error("AddExecutor on ready task should panic")
		}
	}()
	p.AddExecutor(0, 0, 0)
}

func TestPoolCompleteByStrangerPanics(t *testing.T) {
	p := NewPool(mkTasks(1))
	p.TakeReady(1, 0, 0)
	defer func() {
		if recover() == nil {
			t.Error("Complete by non-executor should panic")
		}
	}()
	p.Complete(0, 7, 0)
}

func TestPoolAbandonRequeues(t *testing.T) {
	p := NewPool(mkTasks(2))
	p.TakeReady(2, 0, 0)
	p.Abandon(1, 0)
	if p.Ready() != 1 || p.StateOf(1) != Ready {
		t.Fatal("abandoned task did not requeue")
	}
	// Requeued task comes back first.
	got := p.TakeReady(1, 1, time.Second)
	if got[0].ID != 1 {
		t.Fatalf("requeued task not at FIFO head: got %d", got[0].ID)
	}
	// Abandon with another executor alive keeps the task executing.
	p2 := NewPool(mkTasks(1))
	p2.TakeReady(1, 0, 0)
	p2.AddExecutor(0, 1, 0)
	p2.Abandon(0, 0)
	if p2.StateOf(0) != Executing {
		t.Fatal("task with remaining executor requeued")
	}
}

func TestStateString(t *testing.T) {
	if Ready.String() != "ready" || Executing.String() != "executing" || Finished.String() != "finished" {
		t.Error("state names wrong")
	}
	if State(9).String() == "" {
		t.Error("unknown state should render")
	}
}
