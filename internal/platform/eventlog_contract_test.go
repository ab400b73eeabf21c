package platform

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/metrics"
)

// TestEventLogTraceContract: a line the wall-clock master's event log
// emits reads back through ReadTrace unchanged, every field populated.
func TestEventLogTraceContract(t *testing.T) {
	in := metrics.Event{
		Kind: metrics.EventExec, TimeSec: 1.5, PE: "GPU1",
		Tasks: []int{3, 4}, Replica: true,
		GCUPS: 2.25,
		Task:  7, EndSec: 9.75, Completed: true,
		CellsDone: 12345, TasksWon: 3, BusySec: 8.5,
		MakespanSec: 100.25, TotalGCUPS: 3.5,
	}
	var buf bytes.Buffer
	if err := metrics.NewEventLog(&buf).Emit(in); err != nil {
		t.Fatal(err)
	}
	evs, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("event-log line unreadable as a trace: %v", err)
	}
	if len(evs) != 1 || !reflect.DeepEqual(evs[0], in) {
		t.Errorf("round trip:\n got %+v\nwant %+v", evs, in)
	}
}
