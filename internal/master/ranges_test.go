package master_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/master"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/score"
	"repro/internal/seq"
	"repro/internal/slave"
	"repro/internal/wire"
)

// TestRangedJobMergesByQueryIndex runs a job cut into four ranges over a
// mixed engine set, with two queries sharing one ID, and checks the merge
// and the event log: every query — identified by position, not ID — gets
// the brute-force ranking, its Replicas and Elapsed fold over its ranges,
// and every assign and exec record names one task's query and range.
func TestRangedJobMergesByQueryIndex(t *testing.T) {
	db, queries := testJob(t, 5)
	twin := *queries[1]
	twin.ID = queries[0].ID
	queries[1] = &twin
	ranges := cutRanges(db, 4)

	var log bytes.Buffer
	m, err := master.New(master.Config{
		Queries:    queries,
		DBResidues: dbResidues(db),
		Ranges:     ranges,
		Policy:     &sched.PSS{},
		Adjust:     true,
		Events:     metrics.NewEventLog(&log),
	})
	if err != nil {
		t.Fatal(err)
	}
	sse1, _ := slave.NewFarrarEngine("sse1", score.DefaultProtein(), db, 0)
	sse2, _ := slave.NewFarrarEngine("sse2", score.DefaultProtein(), db, 0)
	gpu := sse1.Replica("gpu1", sched.KindGPU)
	runLocal(t, m, []slave.Engine{sse1, sse2, gpu})
	if err := m.Wait(time.Second); err != nil {
		t.Fatal(err)
	}

	// Read the log back: per task, who was handed it and when it finished.
	replicas := make([]int, len(queries))
	lastEnd := make([]float64, len(queries))
	execs := map[int]int{}
	sc := bufio.NewScanner(&log)
	for sc.Scan() {
		var ev metrics.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Kind != metrics.EventAssign && ev.Kind != metrics.EventExec {
			continue
		}
		task := ev.Task
		if ev.Kind == metrics.EventAssign {
			if len(ev.Tasks) != 1 {
				t.Fatalf("assign record lists %d tasks, want one per range task: %+v", len(ev.Tasks), ev)
			}
			task = ev.Tasks[0]
		}
		qi, want := task/len(ranges), ranges[task%len(ranges)]
		if ev.Query != queries[qi].ID || ev.Lo != want.Lo || ev.Hi != want.Hi {
			t.Errorf("%s record of task %d says %q [%d,%d), want %q [%d,%d)",
				ev.Kind, task, ev.Query, ev.Lo, ev.Hi, queries[qi].ID, want.Lo, want.Hi)
		}
		switch {
		case ev.Kind == metrics.EventExec:
			execs[task]++
			lastEnd[qi] = math.Max(lastEnd[qi], ev.EndSec)
		case ev.Replica:
			replicas[qi]++
		}
	}
	for task := 0; task < len(queries)*len(ranges); task++ {
		if execs[task] != 1 {
			t.Errorf("task %d has %d exec records, want exactly the winning copy's", task, execs[task])
		}
	}

	results := m.Results()
	if len(results) != len(queries) {
		t.Fatalf("%d results for %d queries", len(results), len(queries))
	}
	for i, r := range results {
		if r.Query != queries[i].ID {
			t.Fatalf("result %d is for %q, want %q", i, r.Query, queries[i].ID)
		}
		checkRanking(t, r, bruteForce(queries[i], db))
		if r.Replicas != replicas[i] {
			t.Errorf("query %d: Replicas = %d, the log shows %d replica grants over its ranges", i, r.Replicas, replicas[i])
		}
		if math.Abs(r.Elapsed.Seconds()-lastEnd[i]) > 1e-6 {
			t.Errorf("query %d: Elapsed = %v, its last range finished at %.6f s", i, r.Elapsed, lastEnd[i])
		}
	}
}

// TestRangesValidation: a cut must start at sequence 0, leave no gap or
// empty range and account for every database residue.
func TestRangesValidation(t *testing.T) {
	db, queries := testJob(t, 2)
	good := cutRanges(db, 3)
	for name, mutate := range map[string]func([]master.Range){
		"gap":              func(r []master.Range) { r[1].Lo++ },
		"not from zero":    func(r []master.Range) { r[0].Lo = 1 },
		"empty range":      func(r []master.Range) { r[1].Hi = r[1].Lo },
		"residue mismatch": func(r []master.Range) { r[2].Residues++ },
	} {
		ranges := append([]master.Range{}, good...)
		mutate(ranges)
		if _, err := master.New(master.Config{Queries: queries, DBResidues: dbResidues(db), Ranges: ranges}); err == nil {
			t.Errorf("%s: cut %v accepted", name, ranges)
		}
	}
	if _, err := master.New(master.Config{Queries: queries, DBResidues: dbResidues(db), Ranges: good}); err != nil {
		t.Errorf("valid cut refused: %v", err)
	}
}

// scriptedEngine is a one-residue-database engine whose Search answers at
// once, or — given a gate — waits for the gate to open or its cancel
// channel to close, never calling progress: nothing but a push can tell it
// the job is over.
type scriptedEngine struct {
	name    string
	gate    <-chan struct{}
	started chan struct{} // closed when a gated Search begins
}

func (e *scriptedEngine) Name() string            { return e.name }
func (e *scriptedEngine) Kind() sched.SlaveKind   { return sched.KindCPU }
func (e *scriptedEngine) DeclaredSpeed() float64  { return 0 }
func (e *scriptedEngine) DatabaseResidues() int64 { return 1 }
func (e *scriptedEngine) Search(_ *seq.Sequence, _ func(int64), cancel <-chan struct{}) ([]wire.Hit, error) {
	if e.gate == nil {
		return nil, nil
	}
	close(e.started)
	select {
	case <-e.gate:
		return nil, nil
	case <-cancel:
		return nil, slave.ErrCanceled
	}
}

// standbyCaller signals the first time the master tells its slave to stand
// by.
type standbyCaller struct {
	wire.Caller
	standby chan struct{}
	once    sync.Once
}

func (c *standbyCaller) Call(req wire.Envelope) (wire.Envelope, error) {
	resp, err := c.Caller.Call(req)
	if err == nil && resp.Assign != nil && resp.Assign.Standby {
		c.once.Do(func() { close(c.standby) })
	}
	return resp, err
}

// oneTaskJob starts a one-query job and returns it with a function that
// runs a slave loop against it — hour-long poll, the job's end pushed — and
// one that joins the loops, failing if any is still running 10 s later.
func oneTaskJob(t *testing.T, adjust bool) (m *master.Master, run func(wire.Caller, slave.Engine), join func()) {
	t.Helper()
	m, err := master.New(master.Config{
		Queries:    []*seq.Sequence{seq.New("q", "", []byte("A"))},
		DBResidues: 1,
		Adjust:     adjust,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	var loops []<-chan error
	run = func(caller wire.Caller, eng slave.Engine) {
		done := make(chan error, 1)
		loops = append(loops, done)
		go func() {
			_, err := slave.Run(caller, eng, slave.Options{NotifyEvery: time.Millisecond, Poll: time.Hour, Done: m.Done()})
			done <- err
		}()
	}
	join = func() {
		t.Helper()
		for _, done := range loops {
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("a slave loop is still running 10 s after the job ended: the end of the job was not pushed")
			}
		}
		select {
		case <-m.Done():
		default:
			t.Fatal("every slave loop returned but the job is not done")
		}
	}
	return m, run, join
}

// TestJobEndIsPushedToBlockedReplica: one task, two copies. The first
// slave's scan blocks until canceled and never reports progress; the
// second replicates the task and answers at once. Accepting that copy ends
// the job, and the end must reach the blocked slave without it asking:
// without the push it is never told, and whoever joins both loops — as
// cluster.searchShard does — hangs.
func TestJobEndIsPushedToBlockedReplica(t *testing.T) {
	m, run, join := oneTaskJob(t, true)
	blocked := &scriptedEngine{name: "blocked", gate: make(chan struct{}), started: make(chan struct{})}
	run(wire.Local{H: m}, blocked)
	<-blocked.started
	run(wire.Local{H: m}, &scriptedEngine{name: "instant"})
	join()
	if r := m.Results(); len(r) != 1 || r[0].Replicas != 1 || r[0].Slave != 1 {
		t.Errorf("results = %+v, want one query finished by the replica on slave 1", r)
	}
}

// TestJobEndWakesStandingBySlave: with nothing left to hand out and no
// adjustment, the second slave is told to stand by and starts an hour-long
// poll sleep; when the first slave then finishes the only task, the sleeper
// must wake and return instead of sleeping the poll out.
func TestJobEndWakesStandingBySlave(t *testing.T) {
	m, run, join := oneTaskJob(t, false)
	release := make(chan struct{})
	working := &scriptedEngine{name: "working", gate: release, started: make(chan struct{})}
	run(wire.Local{H: m}, working)
	<-working.started
	idle := &standbyCaller{Caller: wire.Local{H: m}, standby: make(chan struct{})}
	run(idle, &scriptedEngine{name: "idle"})
	<-idle.standby
	close(release)
	join()
}
