package platform

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sched"
)

func TestTraceRoundTrip(t *testing.T) {
	res, err := Run(fig5Experiment(true))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, res); err != nil {
		t.Fatal(err)
	}
	// The experiments keep the paper's grain — whole-database tasks — so
	// no record of theirs may carry the range-task fields.
	for _, key := range []string{`"query"`, `"lo"`, `"hi"`} {
		if strings.Contains(buf.String(), key) {
			t.Errorf("whole-database trace carries the range field %s", key)
		}
	}
	events, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var assigns, samples, summaries, execs int
	for _, e := range events {
		switch e.Kind {
		case "assign":
			assigns++
			if e.PE == "" || len(e.Tasks) == 0 {
				t.Fatalf("bad assign event: %+v", e)
			}
		case "sample":
			samples++
		case "exec":
			execs++
			if e.EndSec < e.TimeSec {
				t.Fatalf("exec window inverted: %+v", e)
			}
		case "summary":
			summaries++
		default:
			t.Fatalf("unknown kind %q", e.Kind)
		}
	}
	if execs < 20 {
		t.Errorf("only %d exec events for a 20-task run", execs)
	}
	if assigns != len(res.Assignments) {
		t.Errorf("assigns = %d, want %d", assigns, len(res.Assignments))
	}
	if samples == 0 || summaries != len(res.PerPE)+1 {
		t.Errorf("samples=%d summaries=%d", samples, summaries)
	}
	sum, ok := TraceSummary(events)
	if !ok {
		t.Fatal("no overall summary")
	}
	if math.Abs(sum.MakespanSec-res.Makespan.Seconds()) > 1e-9 {
		t.Errorf("makespan = %v, want %v", sum.MakespanSec, res.Makespan.Seconds())
	}
	// The replica assignment must be marked.
	found := false
	for _, e := range events {
		if e.Kind == "assign" && e.Replica {
			found = true
		}
	}
	if !found {
		t.Error("replica assignment missing from trace")
	}

	// A range task's records name its query and [lo,hi), and survive the
	// round trip.
	ranged := []TraceEvent{
		{Kind: metrics.EventAssign, TimeSec: 0.5, PE: "sse1", Tasks: []int{5}, Replica: true, Query: "Q01", Lo: 3, Hi: 9},
		{Kind: metrics.EventExec, TimeSec: 0.5, PE: "sse1", Task: 5, EndSec: 0.75, Completed: true, Query: "Q01", Lo: 3, Hi: 9},
	}
	buf.Reset()
	log := metrics.NewEventLog(&buf)
	for _, e := range ranged {
		if err := log.Emit(e); err != nil {
			t.Fatal(err)
		}
	}
	back, err := ReadTrace(&buf)
	if err != nil || !reflect.DeepEqual(back, ranged) {
		t.Errorf("range records read back as %+v (%v), want %+v", back, err, ranged)
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadTrace(strings.NewReader("{\"kind\":\"assign\"}\nnot json\n")); err == nil {
		t.Error("garbage line accepted")
	}
}

func TestTraceSummaryMissing(t *testing.T) {
	if _, ok := TraceSummary([]TraceEvent{{Kind: "assign"}}); ok {
		t.Error("summary claimed present")
	}
}

func TestTraceNameFallback(t *testing.T) {
	// An assignment referencing a slave beyond PerPE (possible in hand-
	// crafted results) must not panic.
	res := &Result{
		Assignments: []sched.Assignment{{Slave: 9, Tasks: []sched.TaskID{1}}},
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "pe9") {
		t.Errorf("fallback name missing: %s", buf.String())
	}
}
