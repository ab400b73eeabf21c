package slave

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/sched"
	"repro/internal/score"
	"repro/internal/seq"
	"repro/internal/wire"
)

// scriptedMaster is a minimal in-process master for driving the slave loop
// through specific protocol paths.
type scriptedMaster struct {
	mu         sync.Mutex
	tasks      []wire.TaskSpec
	next       int
	standbys   int // respond Standby this many times before assigning
	cancelOn   map[sched.TaskID]bool
	completed  []sched.TaskID
	progresses int
	doneAfter  int // report Done once this many completions arrived
}

func (f *scriptedMaster) Call(req wire.Envelope) (wire.Envelope, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch {
	case req.Register != nil:
		return wire.Envelope{RegisterAck: &wire.RegisterAckMsg{Slave: 0}}, nil
	case req.Request != nil:
		if len(f.completed) >= f.doneAfter {
			return wire.Envelope{Assign: &wire.AssignMsg{Done: true}}, nil
		}
		if f.standbys > 0 {
			f.standbys--
			return wire.Envelope{Assign: &wire.AssignMsg{Standby: true}}, nil
		}
		if f.next < len(f.tasks) {
			t := f.tasks[f.next]
			f.next++
			return wire.Envelope{Assign: &wire.AssignMsg{Tasks: []wire.TaskSpec{t}}}, nil
		}
		return wire.Envelope{Assign: &wire.AssignMsg{Done: true}}, nil
	case req.Progress != nil:
		f.progresses++
		var cancel []sched.TaskID
		for id := range f.cancelOn {
			cancel = append(cancel, id)
		}
		return wire.Envelope{ProgressAck: &wire.ProgressAckMsg{Cancel: cancel}}, nil
	case req.Complete != nil:
		f.completed = append(f.completed, req.Complete.Task)
		return wire.Envelope{CompleteAck: &wire.CompleteAckMsg{
			Accepted: true,
			Done:     len(f.completed) >= f.doneAfter,
		}}, nil
	}
	return wire.Envelope{Error: "unexpected"}, nil
}

func (f *scriptedMaster) Close() error { return nil }

func testEngine(t *testing.T) (*FarrarEngine, []wire.TaskSpec) {
	t.Helper()
	db := tinyDB(t)
	eng, err := NewFarrarEngine("s", score.DefaultProtein(), db, 0)
	if err != nil {
		t.Fatal(err)
	}
	qs := dataset.Queries(db, 3, 40, 80, 77)
	specs := make([]wire.TaskSpec, len(qs))
	for i, q := range qs {
		specs[i] = wire.TaskSpec{
			ID: sched.TaskID(i), QueryID: q.ID, Residues: q.Residues,
			Cells: int64(q.Len()) * eng.DatabaseResidues(),
		}
	}
	return eng, specs
}

func TestRunCompletesAllTasks(t *testing.T) {
	eng, specs := testEngine(t)
	m := &scriptedMaster{tasks: specs, doneAfter: len(specs)}
	n, err := Run(m, eng, Options{NotifyEvery: time.Microsecond, Poll: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(specs) || len(m.completed) != len(specs) {
		t.Fatalf("completed %d/%d", n, len(m.completed))
	}
}

func TestRunHandlesStandby(t *testing.T) {
	eng, specs := testEngine(t)
	m := &scriptedMaster{tasks: specs[:1], standbys: 3, doneAfter: 1}
	n, err := Run(m, eng, Options{Poll: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("completed %d", n)
	}
}

func TestRunSkipsPreCanceledTask(t *testing.T) {
	eng, specs := testEngine(t)
	// The master cancels task 0 via a progress ack during task... simpler:
	// the cancel set already contains task 1 when the batch arrives.
	m := &scriptedBatchMaster{batch: specs, cancelID: 1}
	n, err := Run(m, eng, Options{NotifyEvery: time.Microsecond, Poll: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// Task 1 was canceled while task 0 executed; only 0 and 2 complete.
	if n != 2 {
		t.Fatalf("completed %d, want 2", n)
	}
	for _, id := range m.completed {
		if id == 1 {
			t.Fatal("canceled task was executed")
		}
	}
}

// scriptedBatchMaster hands the whole batch at once and cancels cancelID on
// the first progress notification (once — the real coordinator drains its
// cancellation list per event).
type scriptedBatchMaster struct {
	mu         sync.Mutex
	batch      []wire.TaskSpec
	given      bool
	cancelID   sched.TaskID
	cancelSent bool
	completed  []sched.TaskID
}

func (f *scriptedBatchMaster) Call(req wire.Envelope) (wire.Envelope, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch {
	case req.Register != nil:
		return wire.Envelope{RegisterAck: &wire.RegisterAckMsg{Slave: 0}}, nil
	case req.Request != nil:
		if f.given {
			return wire.Envelope{Assign: &wire.AssignMsg{Done: true}}, nil
		}
		f.given = true
		return wire.Envelope{Assign: &wire.AssignMsg{Tasks: f.batch}}, nil
	case req.Progress != nil:
		if f.cancelSent {
			return wire.Envelope{ProgressAck: &wire.ProgressAckMsg{}}, nil
		}
		f.cancelSent = true
		return wire.Envelope{ProgressAck: &wire.ProgressAckMsg{Cancel: []sched.TaskID{f.cancelID}}}, nil
	case req.Complete != nil:
		f.completed = append(f.completed, req.Complete.Task)
		return wire.Envelope{CompleteAck: &wire.CompleteAckMsg{Accepted: true}}, nil
	}
	return wire.Envelope{Error: "unexpected"}, nil
}

func (f *scriptedBatchMaster) Close() error { return nil }

// failCaller always errors.
type failCaller struct{ err error }

func (f failCaller) Call(wire.Envelope) (wire.Envelope, error) { return wire.Envelope{}, f.err }
func (f failCaller) Close() error                              { return nil }

func TestRunRegisterFailure(t *testing.T) {
	eng, _ := testEngine(t)
	if _, err := Run(failCaller{err: fmt.Errorf("boom")}, eng, Options{}); err == nil {
		t.Error("register failure not surfaced")
	}
}

// badAckCaller acknowledges registration but answers requests nonsensically.
type badAckCaller struct{ registered bool }

func (b *badAckCaller) Call(req wire.Envelope) (wire.Envelope, error) {
	if req.Register != nil {
		return wire.Envelope{RegisterAck: &wire.RegisterAckMsg{Slave: 0}}, nil
	}
	return wire.Envelope{ProgressAck: &wire.ProgressAckMsg{}}, nil // wrong type
}
func (b *badAckCaller) Close() error { return nil }

func TestRunBadResponses(t *testing.T) {
	eng, _ := testEngine(t)
	if _, err := Run(&badAckCaller{}, eng, Options{}); err == nil {
		t.Error("nonsense Assign response not surfaced")
	}
	// Missing RegisterAck entirely.
	noAck := &scriptedMaster{}
	brokenReg := callerFunc(func(req wire.Envelope) (wire.Envelope, error) {
		if req.Register != nil {
			return wire.Envelope{}, nil
		}
		return noAck.Call(req)
	})
	if _, err := Run(brokenReg, eng, Options{}); err == nil {
		t.Error("missing RegisterAck not surfaced")
	}
}

type callerFunc func(wire.Envelope) (wire.Envelope, error)

func (f callerFunc) Call(req wire.Envelope) (wire.Envelope, error) { return f(req) }
func (f callerFunc) Close() error                                  { return nil }

func TestRunDoneViaCompleteAck(t *testing.T) {
	// The job-done flag on the CompleteAck must stop the loop without
	// another Request round trip.
	eng, specs := testEngine(t)
	requests := 0
	m := &scriptedMaster{tasks: specs[:1], doneAfter: 1}
	counting := callerFunc(func(req wire.Envelope) (wire.Envelope, error) {
		if req.Request != nil {
			requests++
		}
		return m.Call(req)
	})
	if _, err := Run(counting, eng, Options{NotifyEvery: time.Microsecond}); err != nil {
		t.Fatal(err)
	}
	if requests != 1 {
		t.Errorf("%d Request round trips, want 1 (Done piggybacked on CompleteAck)", requests)
	}
}

// TestRunStopsWhenContextEnds: cancelling Options.Context ends the
// session. The in-flight scan is aborted, nothing is completed, and Run
// returns nil without asking the master for more work.
func TestRunStopsWhenContextEnds(t *testing.T) {
	ctx, end := context.WithCancel(context.Background())
	defer end()
	requests := 0
	caller := callerFunc(func(req wire.Envelope) (wire.Envelope, error) {
		switch {
		case req.Register != nil:
			return wire.Envelope{RegisterAck: &wire.RegisterAckMsg{Slave: 0}}, nil
		case req.Request != nil:
			requests++
			if requests > 1 {
				return wire.Envelope{Assign: &wire.AssignMsg{Done: true}}, nil
			}
			spec := wire.TaskSpec{ID: 1, QueryID: "q", Residues: []byte("MKVLATLLLLGA"), Cells: 12 * 1000}
			return wire.Envelope{Assign: &wire.AssignMsg{Tasks: []wire.TaskSpec{spec, {ID: 2, QueryID: "r", Residues: []byte("MKV"), Cells: 3 * 1000}}}}, nil
		case req.Progress != nil:
			// The job ends while the scan runs.
			end()
			return wire.Envelope{ProgressAck: &wire.ProgressAckMsg{}}, nil
		case req.Complete != nil:
			t.Errorf("task %d completed after the context ended", req.Complete.Task)
		}
		return wire.Envelope{}, nil
	})
	n, err := Run(caller, blockingEngine{}, Options{NotifyEvery: time.Nanosecond, Context: ctx})
	if err != nil || n != 0 {
		t.Fatalf("Run = (%d, %v), want (0, nil)", n, err)
	}
	if requests != 1 {
		t.Errorf("%d Requests sent, want 1: the session must end without asking for more work", requests)
	}
}

// TestRunSkipsTheAssignOnceDoneCloses: the loop checks Options.Context
// before each task of an Assign, so a job that ends while the first of
// three granted tasks runs costs that one task, not the rest of the grant.
func TestRunSkipsTheAssignOnceDoneCloses(t *testing.T) {
	eng, specs := testEngine(t)
	ctx, end := context.WithCancel(context.Background())
	defer end()
	requests, completes := 0, 0
	caller := callerFunc(func(req wire.Envelope) (wire.Envelope, error) {
		switch {
		case req.Register != nil:
			return wire.Envelope{RegisterAck: &wire.RegisterAckMsg{Slave: 0}}, nil
		case req.Request != nil:
			requests++
			return wire.Envelope{Assign: &wire.AssignMsg{Tasks: specs}}, nil
		case req.Complete != nil:
			// The job ends as the first task's result arrives.
			if completes++; completes == 1 {
				end()
			}
			return wire.Envelope{CompleteAck: &wire.CompleteAckMsg{Accepted: true}}, nil
		}
		return wire.Envelope{ProgressAck: &wire.ProgressAckMsg{}}, nil
	})
	n, err := Run(caller, eng, Options{NotifyEvery: time.Hour, Context: ctx})
	if err != nil || n != 1 {
		t.Fatalf("Run = (%d, %v), want (1, nil)", n, err)
	}
	if completes != 1 || requests != 1 {
		t.Errorf("%d completions and %d Requests, want 1 and 1: the grant's other %d tasks must not run", completes, requests, len(specs)-1)
	}
}

// blockingEngine reports progress once and then waits on its cancel
// channel: a stand-in for a long scan that can only end by cancellation.
// A query named quick returns at once, without hits.
type blockingEngine struct{ quick string }

func (blockingEngine) Name() string            { return "stub" }
func (blockingEngine) Kind() sched.SlaveKind   { return sched.KindCPU }
func (blockingEngine) DeclaredSpeed() float64  { return 0 }
func (blockingEngine) DatabaseResidues() int64 { return 1000 }

func (e blockingEngine) Search(q *seq.Sequence, progress func(int64), cancel <-chan struct{}) ([]wire.Hit, error) {
	if q.ID == e.quick {
		return nil, nil
	}
	progress(1)
	select {
	case <-cancel:
		return nil, ErrCanceled
	case <-time.After(5 * time.Second):
		return nil, fmt.Errorf("scan kept running after the master died")
	}
}

// TestRunCancelsTheRunningTaskByAck: a progress acknowledgement that
// names the task in flight aborts its scan (blockingEngine ends no other
// way), no result is sent for it, and the loop goes on to the next grant.
func TestRunCancelsTheRunningTaskByAck(t *testing.T) {
	m := &scriptedMaster{
		tasks: []wire.TaskSpec{
			{ID: 0, QueryID: "slow", Residues: []byte("MKVLATLLLLGA"), Cells: 12 * 1000},
			{ID: 1, QueryID: "quick", Residues: []byte("MKV"), Cells: 3 * 1000},
		},
		cancelOn:  map[sched.TaskID]bool{0: true},
		doneAfter: 1,
	}
	start := time.Now()
	n, err := Run(m, blockingEngine{quick: "quick"}, Options{NotifyEvery: time.Nanosecond, Poll: time.Millisecond})
	if err != nil || n != 1 {
		t.Fatalf("Run = (%d, %v), want (1, nil)", n, err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("Run took %v: the canceled scan ran on toward blockingEngine's 5 s", el)
	}
	if len(m.completed) != 1 || m.completed[0] != 1 {
		t.Errorf("completions %v, want only task 1: the canceled task 0 must send no result", m.completed)
	}
}

// TestRunTaskAbortsScanWhenMasterDies: when a progress notification
// fails, the master can never cancel the task (or hear its result), so
// runTask must cancel it itself and abort the in-flight scan instead of
// grinding out the rest of the database.
func TestRunTaskAbortsScanWhenMasterDies(t *testing.T) {
	dead := fmt.Errorf("connection reset")
	caller := callerFunc(func(req wire.Envelope) (wire.Envelope, error) {
		switch {
		case req.Progress != nil:
			return wire.Envelope{}, dead
		case req.Complete != nil:
			t.Error("completion sent to a master whose progress call already failed")
		}
		return wire.Envelope{}, nil
	})
	spec := wire.TaskSpec{ID: 42, QueryID: "q", Residues: []byte("MKVLATLLLLGA"), Cells: 12 * 1000}
	opts := Options{TopK: 2, NotifyEvery: time.Nanosecond}
	opts.fill()
	start := time.Now()
	_, _, err := runTask(caller, blockingEngine{}, 0, spec, map[sched.TaskID]bool{}, &FilterCache{}, opts)
	if err != dead {
		t.Fatalf("runTask error = %v, want the dead master's %v", err, dead)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("runTask took %v: a failed progress call did not cancel task 42, so the scan ground on for a dead master", el)
	}
}
