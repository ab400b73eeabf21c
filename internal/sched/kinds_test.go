package sched

import (
	"testing"
)

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
// named the prefilter and rescore stages as kinds 1 and 2. TaskFiltered
// must be neither, so such a slave handed one fails with "unknown task
// kind" instead of running a stage it does not mean.
func TestFilteredKindUnknownToOlderSlaves(t *testing.T) {
	if TaskFiltered == 1 || TaskFiltered == 2 {
		t.Fatalf("TaskFiltered = %d reuses a stage kind of older binaries", int(TaskFiltered))
	}
}

func TestKindBlindFastPathForPureSWPools(t *testing.T) {
	// The coordinator never looks at a task's kind: a slave drains the
	// ready FIFO from its head.
	c := NewCoordinator(mkTasks(2), Config{Policy: SS{}})
	s := c.Register(SlaveInfo{Name: "legacy", Kind: KindCPU}, 0)
	if got, _ := c.RequestWork(s, 0); len(got) != 1 || got[0].ID != 0 {
		t.Fatalf("grant = %v", got)
	}
}
