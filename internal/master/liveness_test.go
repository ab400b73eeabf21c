package master_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/master"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/score"
	"repro/internal/seq"
	"repro/internal/slave"
	"repro/internal/wire"
)

var testBackoff = wire.Backoff{Base: 2 * time.Millisecond, Cap: 10 * time.Millisecond, Jitter: 0.1}

// TestLeaseRescuesHungSlave is the headline failure-detection scenario over
// real TCP: a slave wedges mid-task with its connection still open, so
// SlaveGone never fires; with Adjust off, only the lease can requeue its
// task. The job must still complete.
func TestLeaseRescuesHungSlave(t *testing.T) {
	db, queries := testJob(t, 4)
	m, err := master.New(master.Config{
		Queries:    queries,
		DBResidues: dbResidues(db),
		Policy:     sched.SS{},
		Adjust:     false,
		Lease:      150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := m.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	// The hung slave registers, takes a task, then wedges on its next call
	// (the first progress notification) with the socket open.
	hungEng, _ := slave.NewFarrarEngine("hung", score.DefaultProtein(), db, 0)
	hc, err := wire.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	fc := wire.NewFaultCaller(hc, 1, wire.Rule{Kind: wire.AnyMsg, After: 2, Action: wire.FaultHang})
	hungErr := make(chan error, 1)
	go func() {
		_, err := slave.Run(fc, hungEng, slave.Options{
			NotifyEvery: time.Millisecond,
			Poll:        time.Millisecond,
		})
		hungErr <- err
	}()
	// Wait until the hang has fired: the slave now holds a task and will
	// never be heard from again.
	deadline := time.Now().Add(5 * time.Second)
	for fc.Fired(0) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("hung slave never reached its hang")
		}
		time.Sleep(time.Millisecond)
	}

	healthyEng, _ := slave.NewFarrarEngine("healthy", score.DefaultProtein(), db, 0)
	client, err := wire.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	healthyErr := make(chan error, 1)
	go func() {
		_, err := slave.Run(client, healthyEng, slave.Options{
			NotifyEvery: 10 * time.Millisecond,
			Poll:        5 * time.Millisecond,
		})
		healthyErr <- err
	}()

	if err := m.Wait(10 * time.Second); err != nil {
		t.Fatalf("job hung: %v (lease expiry did not requeue the wedged slave's task)", err)
	}
	if err := <-healthyErr; err != nil {
		t.Fatal(err)
	}
	fc.Close() // release the wedged call; the hung slave errors out
	if err := <-hungErr; err == nil {
		t.Error("hung slave finished cleanly; its call should have failed on release")
	}
	m.Close()

	if !m.Coordinator().Dead(0) {
		t.Error("hung slave (id 0) was not declared dead by the lease")
	}
	results := m.Results()
	if len(results) != len(queries) {
		t.Fatalf("%d results for %d queries", len(results), len(queries))
	}
	for _, r := range results {
		if r.Slave != 1 {
			t.Errorf("query %s credited to slave %d; every result must come from the healthy slave", r.Query, r.Slave)
		}
		if len(r.Hits) == 0 {
			t.Errorf("query %s has no hits", r.Query)
		}
	}
}

// TestKilledSlaveReconnectsNoDuplicates drops the response to a completion:
// the master accepts the result, the slave sees a dead connection, redials
// and re-registers. The finished task must not run or count twice.
func TestKilledSlaveReconnectsNoDuplicates(t *testing.T) {
	db, queries := testJob(t, 4)
	m, err := master.New(master.Config{
		Queries:    queries,
		DBResidues: dbResidues(db),
		Policy:     sched.SS{},
		Adjust:     false,
		Lease:      time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := m.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	eng, _ := slave.NewFarrarEngine("flaky", score.DefaultProtein(), db, 0)
	dial := func() (wire.Caller, error) { return wire.Dial(l.Addr().String()) }
	c0, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	fc := wire.NewFaultCaller(c0, 1, wire.Rule{Kind: wire.CompleteKind, Action: wire.FaultDrop, Count: 1})
	n, err := slave.Run(fc, eng, slave.Options{
		NotifyEvery: 10 * time.Millisecond,
		Poll:        5 * time.Millisecond,
		Reconnect:   dial,
		MaxRetries:  5,
		Backoff:     testBackoff,
		RetrySeed:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Wait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	m.Close()

	// One ack was lost, so the slave itself counted one task fewer than the
	// master accepted — and nothing ran twice.
	if n != len(queries)-1 {
		t.Errorf("slave counted %d completions, want %d (one ack dropped)", n, len(queries)-1)
	}
	if got := m.Coordinator().Pool().Finished(); got != len(queries) {
		t.Errorf("pool finished = %d, want %d", got, len(queries))
	}
	if got := m.Coordinator().Slaves(); got != 2 {
		t.Errorf("%d registered slaves, want 2 (original + reconnection)", got)
	}
	if !m.Coordinator().Dead(0) || m.Coordinator().Dead(1) {
		t.Error("the torn-down identity should be dead, the reconnected one alive")
	}
	results := m.Results()
	if len(results) != len(queries) {
		t.Fatalf("%d results for %d queries", len(results), len(queries))
	}
	seen := map[string]bool{}
	for _, r := range results {
		if seen[r.Query] {
			t.Errorf("query %s has duplicate results", r.Query)
		}
		seen[r.Query] = true
		if len(r.Hits) == 0 {
			t.Errorf("query %s has no hits", r.Query)
		}
	}
}

// TestMasterRestartFromCheckpoint kills a master that already banked one
// result and restarts it from its checkpoint on a fresh address. A slave
// that was dialing all along reconnects, re-registers and finishes only the
// unfinished tasks — in the ranged shape, the other ranges of the query the
// banked range belongs to included.
func TestMasterRestartFromCheckpoint(t *testing.T) {
	db, queries := testJob(t, 4)
	t.Run("whole", func(t *testing.T) { restartFromCheckpoint(t, db, queries, nil) })
	t.Run("ranges", func(t *testing.T) { restartFromCheckpoint(t, db, queries, cutRanges(db, 3)) })
}

func restartFromCheckpoint(t *testing.T, db, queries []*seq.Sequence, ranges []master.Range) {
	cfg := master.Config{
		Queries:    queries,
		DBResidues: dbResidues(db),
		Ranges:     ranges,
		Policy:     sched.SS{},
		Adjust:     false,
		Lease:      200 * time.Millisecond,
	}
	m1, err := master.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A first-life slave completes one task, then the master dies.
	reg := m1.Dispatch(wire.Envelope{Register: &wire.RegisterMsg{Name: "first-life"}})
	as := m1.Dispatch(wire.Envelope{Request: &wire.RequestMsg{Slave: reg.RegisterAck.Slave}})
	if len(as.Assign.Tasks) == 0 {
		t.Fatal("setup: no task assigned")
	}
	first := as.Assign.Tasks[0]
	m1.Dispatch(wire.Envelope{Complete: &wire.CompleteMsg{
		Slave: reg.RegisterAck.Slave, Task: first.ID,
		Hits: []wire.Hit{{SeqID: "banked", Score: 7}}, Cells: first.Cells, Rate: 1e6,
	}})
	var ckpt bytes.Buffer
	if err := m1.SaveCheckpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	m1.Close()

	m2, err := master.LoadCheckpoint(&ckpt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The slave is already retrying before the restarted master listens:
	// every dial fails until the new address appears.
	var mu sync.Mutex
	addr := ""
	dial := func() (wire.Caller, error) {
		mu.Lock()
		a := addr
		mu.Unlock()
		if a == "" {
			return nil, fmt.Errorf("master down")
		}
		return wire.Dial(a)
	}
	eng, _ := slave.NewFarrarEngine("survivor", score.DefaultProtein(), db, 0)
	type outcome struct {
		n   int
		err error
	}
	slaveDone := make(chan outcome, 1)
	go func() {
		n, err := slave.Run(&failingCaller{}, eng, slave.Options{
			NotifyEvery: 10 * time.Millisecond,
			Poll:        5 * time.Millisecond,
			Reconnect:   dial,
			MaxRetries:  100,
			Backoff:     testBackoff,
			RetrySeed:   7,
		})
		slaveDone <- outcome{n, err}
	}()
	time.Sleep(30 * time.Millisecond) // let a few dials fail

	l, err := m2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	mu.Lock()
	addr = l.Addr().String()
	mu.Unlock()

	if err := m2.Wait(10 * time.Second); err != nil {
		t.Fatalf("restarted job never finished: %v", err)
	}
	out := <-slaveDone
	if out.err != nil {
		t.Fatal(out.err)
	}
	m2.Close()

	if want := len(queries)*max(len(ranges), 1) - 1; out.n != want {
		t.Errorf("survivor ran %d tasks, want %d (the checkpointed one must not re-run)", out.n, want)
	}
	results := m2.Results()
	if len(results) != len(queries) {
		t.Fatalf("%d results for %d queries", len(results), len(queries))
	}
	banked := false
	for _, h := range results[0].Hits {
		banked = banked || h.SeqID == "banked"
	}
	if !banked {
		t.Error("the pre-restart result did not survive the checkpoint")
	}
}

// TestConcurrentDispatchStress hammers the master from many synthetic
// slaves while connections drop and a very short lease expires them; run
// under -race it proves the locking around the coordinator, the pending
// cancellations and the expiry ticker.
func TestConcurrentDispatchStress(t *testing.T) {
	_, queries := testJob(t, 30)
	m, err := master.New(master.Config{
		Queries:    queries,
		DBResidues: 1000,
		Policy:     sched.SS{},
		Adjust:     true,
		Lease:      5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var aux sync.WaitGroup
	aux.Add(1)
	go func() {
		// Checkpointing and reporting race the protocol in production too.
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var buf bytes.Buffer
			m.SaveCheckpoint(&buf)
			m.Results()
			time.Sleep(time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			register := func() sched.SlaveID {
				r := m.Dispatch(wire.Envelope{Register: &wire.RegisterMsg{Name: fmt.Sprintf("s%d", w)}})
				return r.RegisterAck.Slave
			}
			id := register()
			for i := 0; i < 200; i++ {
				resp := m.Dispatch(wire.Envelope{Request: &wire.RequestMsg{Slave: id}})
				if resp.Error != "" {
					// Expired under the tiny lease: come back as a new slave.
					id = register()
					continue
				}
				if resp.Assign == nil || resp.Assign.Done {
					return
				}
				for _, spec := range resp.Assign.Tasks {
					m.Dispatch(wire.Envelope{Progress: &wire.ProgressMsg{Slave: id, Rate: 1e6, Cells: spec.Cells / 2}})
					if i%7 == 3 {
						// The connection drops mid-task.
						m.SlaveGone(id)
						id = register()
						break
					}
					m.Dispatch(wire.Envelope{Complete: &wire.CompleteMsg{
						Slave: id, Task: spec.ID, Cells: spec.Cells / 2, Rate: 1e6,
					}})
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	aux.Wait()
	m.Close()
	if got := m.Coordinator().Pool().Finished(); got == 0 {
		t.Error("stress run finished no tasks at all")
	}
}

// TestGPUSlaveRenewsLeaseMidTask: a lone GPU slave whose task outlasts the
// lease must keep it alive with the progress notifications it sends while
// scanning, and finish the job without ever being declared dead. A scan
// that reports progress only at its end stays silent past the lease, so
// the master expires its slave and the job never finishes.
func TestGPUSlaveRenewsLeaseMidTask(t *testing.T) {
	const lease = 60 * time.Millisecond
	p := dataset.Profile{Name: "lease", NumSeqs: 4000, MeanLen: 380, SigmaLn: 0.5, MinLen: 50, MaxLen: 1400}
	db := dataset.Generate(p, 7)
	queries := dataset.Queries(db, 1, 750, 750, 8)
	reg := metrics.NewRegistry()
	m, err := master.New(master.Config{
		Queries:    queries,
		DBResidues: dbResidues(db),
		Policy:     sched.SS{},
		Lease:      lease,
		Registry:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	cpu, _ := slave.NewFarrarEngine("gpu", score.DefaultProtein(), db, 0)
	gpu := slave.NewGPUEngine(cpu)
	// Lay the database out before the job, as a loaded slave has: a
	// range's first search builds its lane layout before any progress.
	if _, err := gpu.Search(seq.New("warm", "", []byte("W")), nil, nil); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	slaveErr := make(chan error, 1)
	go func() {
		_, err := slave.Run(wire.Local{H: m}, gpu, slave.Options{NotifyEvery: 2 * time.Millisecond, Poll: time.Millisecond, TopK: 5})
		slaveErr <- err
	}()
	if err := m.Wait(10 * time.Second); err != nil {
		t.Fatalf("job unfinished: %v (%v lease expirations)", err, sched.NewMetrics(reg).LeaseExpirations.Value())
	}
	if took := time.Since(start); took <= lease {
		t.Fatalf("the task took %v, not past the %v lease; grow the database", took, lease)
	}
	if err := <-slaveErr; err != nil {
		t.Fatal(err)
	}
	if n := sched.NewMetrics(reg).LeaseExpirations.Value(); n != 0 {
		t.Errorf("%v lease expirations, want 0", n)
	}
}
