package metrics

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestEventLogEmit(t *testing.T) {
	var buf bytes.Buffer
	l := NewEventLog(&buf)
	events := []Event{
		{Kind: EventAssign, TimeSec: 0.5, PE: "GPU1", Tasks: []int{0, 1}},
		{Kind: EventSample, TimeSec: 1.0, PE: "GPU1", GCUPS: 27.5},
		{Kind: EventExec, TimeSec: 0.5, EndSec: 2.0, PE: "GPU1", Task: 0, Completed: true},
		{Kind: EventSummary, MakespanSec: 2.0, CellsDone: 123, TotalGCUPS: 0.1},
	}
	for _, e := range events {
		if err := l.Emit(e); err != nil {
			t.Fatal(err)
		}
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), buf.String())
	}
	var back Event
	if err := json.Unmarshal([]byte(lines[0]), &back); err != nil {
		t.Fatal(err)
	}
	if back.Kind != EventAssign || back.PE != "GPU1" || len(back.Tasks) != 2 {
		t.Errorf("round-trip = %+v", back)
	}
	// The JSON field names are the contract with trace files on disk.
	for _, key := range []string{`"kind"`, `"t"`, `"pe"`} {
		if !strings.Contains(lines[0], key) {
			t.Errorf("line missing %s: %s", key, lines[0])
		}
	}
}

func TestEventLogNilSafe(t *testing.T) {
	var l *EventLog
	if err := l.Emit(Event{Kind: EventSample}); err != nil {
		t.Errorf("nil Emit = %v", err)
	}
}

func TestEventLogConcurrent(t *testing.T) {
	var buf bytes.Buffer
	l := NewEventLog(&buf)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				l.Emit(Event{Kind: EventSample, GCUPS: float64(j)})
			}
		}()
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1600 {
		t.Fatalf("got %d lines, want 1600", len(lines))
	}
	for _, line := range lines {
		var e Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("interleaved write produced bad JSON: %v in %q", err, line)
		}
	}
}
