package master_test

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/master"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/score"
	"repro/internal/slave"
	"repro/internal/wire"
)

// TestMetricsEndToEnd drives a real TCP master/slave job with the full
// instrumentation stack attached and asserts that (a) the scheduler, wire
// and slave families carry the job's numbers, (b) the Prometheus
// exposition renders them, and (c) the master's event log parses with the
// same reader as a discrete-event trace — the unification the metrics
// package promises.
func TestMetricsEndToEnd(t *testing.T) {
	db, queries := testJob(t, 4)
	reg := metrics.NewRegistry()
	var evBuf bytes.Buffer
	m, err := master.New(master.Config{
		Queries:    queries,
		DBResidues: dbResidues(db),
		Policy:     &sched.PSS{},
		Adjust:     true,
		Registry:   reg,
		Events:     metrics.NewEventLog(&evBuf),
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := m.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	wireMet := wire.NewMetrics(reg)
	slaveMet := slave.NewMetrics(reg)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		eng, _ := slave.NewFarrarEngine("sse", score.DefaultProtein(), db, 0)
		client, err := wire.Dial(l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			caller := wire.Meter(client, wireMet)
			defer caller.Close()
			if _, err := slave.Run(caller, eng, slave.Options{
				NotifyEvery: 10 * time.Millisecond,
				Poll:        5 * time.Millisecond,
				Metrics:     slaveMet,
			}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if err := m.Wait(time.Second); err != nil {
		t.Fatal(err)
	}

	// (a) Registration is idempotent, so re-attaching reads the live values.
	sm := sched.NewMetrics(reg)
	if got := sm.TasksCompleted.Value(); got != float64(len(queries)) {
		t.Errorf("sched_tasks_completed_total = %v, want %d", got, len(queries))
	}
	if sm.TasksAssigned.Value() < float64(len(queries)) {
		t.Errorf("sched_tasks_assigned_total = %v, want >= %d", sm.TasksAssigned.Value(), len(queries))
	}
	if got := sm.FinishedTasks.Value(); got != float64(len(queries)) {
		t.Errorf("sched_finished_tasks = %v, want %d", got, len(queries))
	}
	for _, kind := range []string{"Register", "Request", "Complete"} {
		if wireMet.CallSeconds.With(kind).Count() == 0 {
			t.Errorf("wire_call_seconds{kind=%q} has no samples", kind)
		}
	}
	if slaveMet.TaskSeconds.Count() == 0 {
		t.Error("slave_task_seconds has no samples")
	}
	if slaveMet.Cells.Value() <= 0 {
		t.Errorf("slave_cells_computed_total = %v", slaveMet.Cells.Value())
	}

	// (b) The exposition carries every subsystem.
	var expo bytes.Buffer
	if err := reg.WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"sched_tasks_completed_total " + "4",
		"sched_slave_rate_gcups{slave=",
		"wire_call_seconds_bucket{kind=\"Complete\",le=",
		"slave_task_seconds_count",
	} {
		if !strings.Contains(expo.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// (c) The event log is a valid trace for the DES parser.
	evs, err := platform.ReadTrace(&evBuf)
	if err != nil {
		t.Fatalf("event log unreadable as a trace: %v", err)
	}
	counts := map[string]int{}
	execCompleted := 0
	for _, e := range evs {
		counts[e.Kind]++
		if e.Kind == "exec" {
			if e.PE == "" || e.EndSec < e.TimeSec {
				t.Errorf("malformed exec event: %+v", e)
			}
			if e.Completed {
				execCompleted++
			}
		}
	}
	if counts["assign"] == 0 {
		t.Error("no assign events")
	}
	if execCompleted != len(queries) {
		t.Errorf("%d completed exec events, want %d", execCompleted, len(queries))
	}
	sum, ok := platform.TraceSummary(evs)
	if !ok {
		t.Fatal("no overall summary event")
	}
	if sum.MakespanSec <= 0 || sum.CellsDone <= 0 || sum.TotalGCUPS <= 0 {
		t.Errorf("summary = %+v", sum)
	}
}

// TestPoolGaugesSumOverOpenMasters: a long-lived server runs one master per
// shard per job on one registry, so the pool gauges are sums over the
// masters still open — each master's share leaves with its Close, and an
// idle registry reads zero. With Set semantics the masters overwrote each
// other and the last writer's numbers stuck after every job had ended.
func TestPoolGaugesSumOverOpenMasters(t *testing.T) {
	db, queries := testJob(t, 5)
	reg := metrics.NewRegistry()
	open := func(qs int, slaves int) *master.Master {
		m, err := master.New(master.Config{Queries: queries[:qs], DBResidues: dbResidues(db), Policy: &sched.SS{}, Registry: reg})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < slaves; i++ {
			if ack := m.Dispatch(wire.Envelope{Register: &wire.RegisterMsg{Name: "s"}}).RegisterAck; ack == nil {
				t.Fatal("registration refused")
			}
		}
		return m
	}
	sm := sched.NewMetrics(reg)
	check := func(when string, ready, executing, finished, alive float64) {
		t.Helper()
		got := [4]float64{sm.ReadyTasks.Value(), sm.ExecutingTasks.Value(), sm.FinishedTasks.Value(), sm.AliveSlaves.Value()}
		if want := [4]float64{ready, executing, finished, alive}; got != want {
			t.Errorf("%s: ready/executing/finished/alive gauges = %v, want %v", when, got, want)
		}
	}

	a := open(3, 1)
	b := open(2, 2)
	check("both open", 5, 0, 0, 3)

	// One task of a runs to completion, one of b is taken: the gauges follow
	// both pools at once.
	task := a.Dispatch(wire.Envelope{Request: &wire.RequestMsg{Slave: 0}}).Assign.Tasks[0]
	a.Dispatch(wire.Envelope{Complete: &wire.CompleteMsg{Slave: 0, Task: task.ID}})
	b.Dispatch(wire.Envelope{Request: &wire.RequestMsg{Slave: 1}})
	check("mid-job", 3, 1, 1, 3)

	a.Close()
	check("a closed", 1, 1, 0, 2)
	// A straggler still talking to the closed master moves nothing.
	a.Dispatch(wire.Envelope{Request: &wire.RequestMsg{Slave: 0}})
	check("a closed, straggler", 1, 1, 0, 2)
	b.SlaveGone(1) // its task requeues, then b leaves with one slave alive
	check("b lost a slave", 2, 0, 0, 1)
	b.Close()
	check("idle", 0, 0, 0, 0)
}
