package sched

import (
	"testing"
)

func TestCanRun(t *testing.T) {
	// Nil caps is the historical contract: full Smith-Waterman scans only.
	if !CanRun(nil, TaskSW) {
		t.Error("nil caps must run SW")
	}
	if CanRun(nil, TaskFiltered) {
		t.Error("nil caps must not run filtered tasks")
	}
	caps := []TaskKind{TaskSW, TaskFiltered}
	if !CanRun(caps, TaskFiltered) || !CanRun(caps, TaskSW) {
		t.Error("declared kinds must run")
	}
	if CanRun([]TaskKind{TaskSW}, TaskFiltered) {
		t.Error("undeclared kind must not run")
	}
}

func TestTaskKindString(t *testing.T) {
	for k, want := range map[TaskKind]string{TaskSW: "sw", TaskFiltered: "filtered"} {
		if got := k.String(); got != want {
			t.Errorf("TaskKind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
	if got := TaskKind(99).String(); got != "TaskKind(99)" {
		t.Errorf("unknown kind = %q", got)
	}
}

// TestFilteredKindUnknownToOlderSlaves: binaries from before the fused kind
// declared the prefilter and rescore stages as kinds 1 and 2. TaskFiltered
// must be neither, so such a slave's capability list never admits it and
// the coordinator never grants it one.
func TestFilteredKindUnknownToOlderSlaves(t *testing.T) {
	if TaskFiltered == 1 || TaskFiltered == 2 {
		t.Fatalf("TaskFiltered = %d reuses a stage kind of older binaries", int(TaskFiltered))
	}
	oldCaps := []TaskKind{TaskSW, 1, 2}
	if CanRun(oldCaps, TaskFiltered) {
		t.Fatal("an older slave's caps admit the fused kind")
	}
	tasks := mkTasks(2)
	tasks[0].Kind = TaskFiltered
	tasks[1].Kind = TaskFiltered
	c := NewCoordinator(tasks, Config{Policy: SS{}, Adjust: true})
	old := c.Register(SlaveInfo{Name: "old", Kind: KindCPU, Caps: oldCaps}, 0)
	if got, replica := c.RequestWork(old, 0); len(got) != 0 || replica {
		t.Fatalf("older slave granted %v (replica %v)", got, replica)
	}
	cur := c.Register(SlaveInfo{Name: "cur", Kind: KindCPU, Caps: []TaskKind{TaskSW, TaskFiltered}}, 0)
	if got, _ := c.RequestWork(cur, 0); len(got) != 1 || got[0].Kind != TaskFiltered {
		t.Fatalf("current slave granted %v", got)
	}
}

func TestTakeReadyFuncSkipsAndKeepsFIFO(t *testing.T) {
	tasks := mkTasks(4)
	tasks[1].Kind = TaskFiltered
	tasks[2].Kind = TaskFiltered
	p := NewPool(tasks)

	swOnly := func(tk Task) bool { return tk.Kind == TaskSW }
	if got := p.ReadyFunc(swOnly); got != 2 {
		t.Fatalf("ReadyFunc(swOnly) = %d, want 2", got)
	}
	if got := p.ReadyFunc(nil); got != 4 {
		t.Fatalf("ReadyFunc(nil) = %d, want 4", got)
	}

	// An SW-only taker receives tasks 0 and 3; the skipped filtered tasks
	// keep their FIFO position.
	got := p.TakeReadyFunc(4, swOnly, 1, 0)
	if len(got) != 2 || got[0].ID != 0 || got[1].ID != 3 {
		t.Fatalf("swOnly take = %v", got)
	}
	rest := p.TakeReadyFunc(4, nil, 2, 0)
	if len(rest) != 2 || rest[0].ID != 1 || rest[1].ID != 2 {
		t.Fatalf("remaining FIFO = %v, want filtered tasks 1,2 in order", rest)
	}
	if p.Ready() != 0 || p.ExecutingCount() != 4 {
		t.Fatalf("pool counts %d ready %d executing", p.Ready(), p.ExecutingCount())
	}
}

func TestRequestWorkHonorsCapabilities(t *testing.T) {
	tasks := mkTasks(2)
	tasks[0].Kind = TaskFiltered
	tasks[1].Kind = TaskFiltered
	c := NewCoordinator(tasks, Config{Policy: SS{}})
	legacy := c.Register(SlaveInfo{Name: "legacy", Kind: KindGPU}, 0)
	capable := c.Register(SlaveInfo{Name: "cpu", Kind: KindCPU,
		Caps: []TaskKind{TaskSW, TaskFiltered}}, 0)

	if got, _ := c.RequestWork(legacy, 0); len(got) != 0 {
		t.Fatalf("nil-caps slave granted %v on a filtered pool", got)
	}
	got, _ := c.RequestWork(capable, 0)
	if len(got) != 1 || got[0].Kind != TaskFiltered {
		t.Fatalf("capable slave granted %v", got)
	}
	// The skipped tasks stayed ready for the capable slave.
	if got, _ := c.RequestWork(capable, 0); len(got) != 1 {
		t.Fatalf("second grant = %v", got)
	}
}

func TestKindBlindFastPathForPureSWPools(t *testing.T) {
	// An all-SW pool never consults capabilities, so nil-caps slaves drain
	// it exactly as before the kinds existed.
	c := NewCoordinator(mkTasks(2), Config{Policy: SS{}})
	s := c.Register(SlaveInfo{Name: "legacy", Kind: KindCPU}, 0)
	if got, _ := c.RequestWork(s, 0); len(got) != 1 {
		t.Fatalf("grant = %v", got)
	}
}

func TestReplicaSkipsIncapableSlave(t *testing.T) {
	tasks := mkTasks(1)
	tasks[0].Kind = TaskFiltered
	c := NewCoordinator(tasks, Config{Policy: SS{}, Adjust: true})
	capable := c.Register(SlaveInfo{Name: "cpu", Kind: KindCPU,
		Caps: []TaskKind{TaskSW, TaskFiltered}}, 0)
	legacy := c.Register(SlaveInfo{Name: "gpu", Kind: KindGPU}, 0)
	c.ProgressRate(capable, 1000, 0, 0)
	c.ProgressRate(legacy, 100000, 0, 0)

	if got, _ := c.RequestWork(capable, 0); len(got) != 1 {
		t.Fatal("setup: capable slave should take the filtered task")
	}
	// The much faster legacy slave would normally win a replica of the
	// executing task, but it cannot run a filtered task.
	if got, replica := c.RequestWork(legacy, sec(1)); len(got) != 0 || replica {
		t.Fatalf("nil-caps slave granted replica %v of a filtered task", got)
	}
}
