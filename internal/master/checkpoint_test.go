package master_test

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/master"
	"repro/internal/sched"
	"repro/internal/score"
	"repro/internal/seq"
	"repro/internal/slave"
	"repro/internal/wire"
)

// TestCheckpointResume completes part of a job, snapshots it, rebuilds a
// master from the checkpoint, and finishes the rest. Finished tasks must
// not re-run, and the merged results must cover every query. In the ranged
// shape the two finished tasks are two of query 0's three ranges, so the
// snapshot is taken mid-query and the restored master must merge banked
// and fresh ranges into the brute-force ranking.
func TestCheckpointResume(t *testing.T) {
	db, queries := testJob(t, 6)
	t.Run("whole", func(t *testing.T) { checkpointResume(t, db, queries, nil) })
	t.Run("ranges", func(t *testing.T) { checkpointResume(t, db, queries, cutRanges(db, 3)) })
}

func checkpointResume(t *testing.T, db, queries []*seq.Sequence, ranges []master.Range) {
	cfg := master.Config{
		Queries:    queries,
		DBResidues: dbResidues(db),
		Ranges:     ranges,
		Policy:     sched.SS{},
		Adjust:     true,
	}
	m1, err := master.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tasks := len(queries) * max(len(ranges), 1)

	// Complete exactly two tasks by hand through the protocol.
	eng, _ := slave.NewFarrarEngine("partial", score.DefaultProtein(), db, 0)
	resp := m1.Dispatch(wire.Envelope{Register: &wire.RegisterMsg{Name: "partial"}})
	id := resp.RegisterAck.Slave
	preDone := map[sched.TaskID]bool{}
	for k := 0; k < 2; k++ {
		assign := m1.Dispatch(wire.Envelope{Request: &wire.RequestMsg{Slave: id}})
		spec := assign.Assign.Tasks[0]
		lo, hi := spec.Lo, spec.Hi
		if hi == 0 {
			hi = len(db)
		}
		hits, err := eng.SearchRange(queryOf(queries, spec.QueryID), lo, hi, 2, nil, make(chan struct{}))
		if err != nil {
			t.Fatal(err)
		}
		m1.Dispatch(wire.Envelope{Complete: &wire.CompleteMsg{
			Slave: id, Task: spec.ID, Hits: hits,
		}})
		preDone[spec.ID] = true
	}

	var buf bytes.Buffer
	if err := m1.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if ranges != nil {
		// The cut is part of what a checkpoint is checked against.
		other := cfg
		other.Ranges = cutRanges(db, 2)
		if _, err := master.LoadCheckpoint(bytes.NewReader(buf.Bytes()), other); err == nil {
			t.Error("checkpoint restored under a different cut")
		}
		other.Ranges = nil
		if _, err := master.LoadCheckpoint(bytes.NewReader(buf.Bytes()), other); err == nil {
			t.Error("ranged checkpoint restored as whole-database tasks")
		}
	}

	// Restore into a fresh master and finish the job with a new slave.
	m2, err := master.LoadCheckpoint(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := m2.Coordinator().Pool().Finished(); got != 2 {
		t.Fatalf("restored master has %d finished tasks, want 2", got)
	}
	for tid := range preDone {
		if m2.Coordinator().Pool().StateOf(tid) != sched.Finished {
			t.Fatalf("pre-checkpoint task %d not finished after restore", tid)
		}
	}
	eng2, _ := slave.NewFarrarEngine("finisher", score.DefaultProtein(), db, 0)
	done, err := slave.Run(wire.Local{H: m2}, eng2, slave.Options{
		NotifyEvery: time.Millisecond, Poll: time.Millisecond, TopK: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if done != tasks-2 {
		t.Errorf("finisher ran %d tasks, want the remaining %d", done, tasks-2)
	}
	if err := m2.Wait(time.Second); err != nil {
		t.Fatal(err)
	}
	results := m2.Results()
	if len(results) != len(queries) {
		t.Fatalf("%d results", len(results))
	}
	for i, r := range results {
		// Every range kept its own two best; the query's two best
		// lead the merged list.
		if want := 2 * max(len(ranges), 1); len(r.Hits) != want {
			t.Fatalf("query %s has %d hits, want %d", r.Query, len(r.Hits), want)
		}
		r.Hits = r.Hits[:2]
		checkRanking(t, r, bruteForce(queries[i], db)[:2])
	}
}

// TestLoadCheckpointFromBeforeRanges restores a checkpoint the parent
// commit wrote — its tasks have no range fields — and finishes the job: the
// tasks decode as whole-database scans and the banked result survives.
func TestLoadCheckpointFromBeforeRanges(t *testing.T) {
	db, queries := testJob(t, 4)
	ckpt, err := os.ReadFile("testdata/checkpoint_pr15.gob")
	if err != nil {
		t.Fatal(err)
	}
	cfg := master.Config{Queries: queries, DBResidues: dbResidues(db), Policy: sched.SS{}}
	m, err := master.LoadCheckpoint(bytes.NewReader(ckpt), cfg)
	if err != nil {
		t.Fatal(err)
	}
	pool := m.Coordinator().Pool()
	if pool.Len() != len(queries) || pool.Finished() != 1 {
		t.Fatalf("restored %d tasks with %d finished, want %d with 1", pool.Len(), pool.Finished(), len(queries))
	}
	for id := 0; id < pool.Len(); id++ {
		if task := pool.Task(sched.TaskID(id)); task.Lo != 0 || task.Hi != 0 {
			t.Errorf("task %d restored with range [%d,%d), want the whole database", id, task.Lo, task.Hi)
		}
	}
	cfg.Ranges = cutRanges(db, 2)
	if _, err := master.LoadCheckpoint(bytes.NewReader(ckpt), cfg); err == nil {
		t.Error("whole-database checkpoint restored under a cut")
	}
	eng, _ := slave.NewFarrarEngine("finisher", score.DefaultProtein(), db, 0)
	if done, err := slave.Run(wire.Local{H: m}, eng, slave.Options{Poll: time.Millisecond, TopK: 3}); err != nil || done != len(queries)-1 {
		t.Fatalf("finisher ran %d tasks (%v), want %d", done, err, len(queries)-1)
	}
	for i, r := range m.Results() {
		checkRanking(t, r, bruteForce(queries[i], db)[:3])
	}
}

func TestCheckpointOfFinishedJobIsDone(t *testing.T) {
	db, queries := testJob(t, 2)
	cfg := master.Config{Queries: queries, DBResidues: dbResidues(db), Policy: sched.SS{}}
	m1, _ := master.New(cfg)
	eng, _ := slave.NewFarrarEngine("s", score.DefaultProtein(), db, 0)
	runLocal(t, m1, []slave.Engine{eng})
	if err := m1.Wait(time.Second); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m1.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := master.LoadCheckpoint(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-m2.Done():
	default:
		t.Error("restored finished job is not Done")
	}
	if len(m2.Results()) != 2 {
		t.Error("results lost across checkpoint")
	}
}

func TestLoadCheckpointValidation(t *testing.T) {
	db, queries := testJob(t, 3)
	cfg := master.Config{Queries: queries, DBResidues: dbResidues(db)}
	m1, _ := master.New(cfg)
	var buf bytes.Buffer
	m1.SaveCheckpoint(&buf)

	// Garbage stream.
	if _, err := master.LoadCheckpoint(bytes.NewReader([]byte("junk")), cfg); err == nil {
		t.Error("garbage checkpoint accepted")
	}
	// Mismatched query count.
	short := cfg
	short.Queries = queries[:2]
	if _, err := master.LoadCheckpoint(bytes.NewReader(buf.Bytes()), short); err == nil {
		t.Error("short query list accepted")
	}
	// Mismatched query identity.
	swapped := cfg
	swapped.Queries = append([]*seq.Sequence{}, queries...)
	swapped.Queries[0], swapped.Queries[1] = swapped.Queries[1], swapped.Queries[0]
	if _, err := master.LoadCheckpoint(bytes.NewReader(buf.Bytes()), swapped); err == nil {
		t.Error("reordered queries accepted")
	}
}

// TestLoadCheckpointRejectsFilteredJobs: only full-scan jobs restore. A
// filtered job's checkpoint, or one written by an older binary whose seeds
// were the separate prefilter stage (kind 1), is refused with an error
// naming the task kind instead of restoring as something else.
func TestLoadCheckpointRejectsFilteredJobs(t *testing.T) {
	db, queries := testJob(t, 2)
	cfg := master.Config{Queries: queries, DBResidues: dbResidues(db), Filtered: true}
	m, err := master.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var buf bytes.Buffer
	if err := m.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := master.LoadCheckpoint(bytes.NewReader(buf.Bytes()), cfg); err == nil || !strings.Contains(err.Error(), "filtered") {
		t.Errorf("filtered config restored: %v", err)
	}
	cfg.Filtered = false
	if _, err := master.LoadCheckpoint(bytes.NewReader(buf.Bytes()), cfg); err == nil || !strings.Contains(err.Error(), "filtered task") {
		t.Errorf("filtered checkpoint restored as a full scan: %v", err)
	}

	old := &sched.Snapshot{Tasks: []sched.Task{
		{QueryID: queries[0].ID, Cells: 8, Kind: 1},
		{QueryID: queries[1].ID, Cells: 8, Kind: 1},
	}}
	_, err = master.RestoreCore(old, queries, nil, sched.Config{}, nil)
	if err == nil || !strings.Contains(err.Error(), "TaskKind(1)") || !strings.Contains(err.Error(), "only full-scan jobs") {
		t.Errorf("older prefilter-stage checkpoint: %v", err)
	}
}

func queryOf(queries []*seq.Sequence, id string) *seq.Sequence {
	for _, q := range queries {
		if q.ID == id {
			return q
		}
	}
	return nil
}
