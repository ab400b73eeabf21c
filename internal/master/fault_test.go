package master_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/master"
	"repro/internal/sched"
	"repro/internal/score"
	"repro/internal/seq"
	"repro/internal/slave"
	"repro/internal/wire"
)

// failingCaller passes through to a Local transport until `after` calls,
// then reports a connection failure — a slave process dying mid-job.
type failingCaller struct {
	inner   wire.Caller
	after   int
	calls   int
	slaveID sched.SlaveID
	mu      sync.Mutex
}

func (f *failingCaller) Call(req wire.Envelope) (wire.Envelope, error) {
	f.mu.Lock()
	f.calls++
	dead := f.calls > f.after
	f.mu.Unlock()
	if dead {
		return wire.Envelope{}, errConnLost
	}
	resp, err := f.inner.Call(req)
	if err == nil && resp.RegisterAck != nil {
		f.mu.Lock()
		f.slaveID = resp.RegisterAck.Slave
		f.mu.Unlock()
	}
	return resp, err
}

func (f *failingCaller) Close() error { return nil }

var errConnLost = &connError{}

type connError struct{}

func (*connError) Error() string { return "connection lost" }

// TestSlaveDiesMidJobSurvivorFinishes kills one slave after a few protocol
// calls; the master must requeue its work and the survivor must finish the
// whole job with the brute-force ranking. The victim is alone at its first
// request, so the Fixed policy hands it every task of the job — in the
// ranged shape, five range tasks per query: it dies holding all but the
// one it completed, they requeue in the order they were granted, and no
// range may be lost or merged twice.
func TestSlaveDiesMidJobSurvivorFinishes(t *testing.T) {
	db, queries := testJob(t, 6)
	t.Run("whole", func(t *testing.T) { slaveDiesMidJob(t, db, queries, nil) })
	t.Run("ranges", func(t *testing.T) { slaveDiesMidJob(t, db, queries, cutRanges(db, 5)) })
}

func slaveDiesMidJob(t *testing.T, db, queries []*seq.Sequence, ranges []master.Range) {
	m, err := master.New(master.Config{
		Queries:    queries,
		DBResidues: dbResidues(db),
		Ranges:     ranges,
		Policy:     &sched.Fixed{},
		Adjust:     true,
	})
	if err != nil {
		t.Fatal(err)
	}

	dying, _ := slave.NewFarrarEngine("dying", score.DefaultProtein(), db, 0)
	survivor, _ := slave.NewFarrarEngine("survivor", score.DefaultProtein(), db, 0)

	dead := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(dead)
		fc := &failingCaller{inner: wire.Local{H: m}, after: 3}
		_, err := slave.Run(fc, dying, slave.Options{NotifyEvery: time.Hour, Poll: time.Millisecond})
		if err == nil {
			t.Error("dying slave should report an error")
		}
		// The TCP layer would call SlaveGone on the dropped connection;
		// the in-process transport emulates it here.
		m.SlaveGone(fc.slaveID)
	}()
	go func() {
		defer wg.Done()
		// The survivor arrives after the death, so everything it runs
		// was requeued from the victim.
		<-dead
		if _, err := slave.Run(wire.Local{H: m}, survivor, slave.Options{
			NotifyEvery: time.Millisecond, Poll: time.Millisecond,
		}); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()
	if err := m.Wait(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	results := m.Results()
	if len(results) != len(queries) {
		t.Fatalf("%d results for %d queries", len(results), len(queries))
	}
	for i, r := range results {
		checkRanking(t, r, bruteForce(queries[i], db))
	}
	// Register, Request, one Complete, then the link dies: the victim
	// finished task 0 and the survivor must be granted the rest in
	// task order — the order they were first assigned.
	next := sched.TaskID(1)
	for _, a := range m.Coordinator().AssignmentLog() {
		if a.Slave != 1 {
			continue
		}
		for _, id := range a.Tasks {
			if id != next {
				t.Fatalf("survivor was granted task %d where %d was next in assignment order", id, next)
			}
			next++
		}
	}
	if want := sched.TaskID(len(queries) * max(len(ranges), 1)); next != want {
		t.Errorf("survivor was granted tasks up to %d, want all %d", next, want)
	}
}

// TestTCPSlaveDisconnectRequeues drops a real TCP connection mid-job and
// checks the serve loop reports the death so the job still completes.
func TestTCPSlaveDisconnectRequeues(t *testing.T) {
	db, queries := testJob(t, 5)
	m, err := master.New(master.Config{
		Queries:    queries,
		DBResidues: dbResidues(db),
		Policy:     sched.SS{},
		Adjust:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := m.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	// Victim: registers, takes one task, then hangs up without finishing.
	victim, err := wire.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := victim.Call(wire.Envelope{Register: &wire.RegisterMsg{Name: "victim"}})
	if err != nil {
		t.Fatal(err)
	}
	vid := resp.RegisterAck.Slave
	assign, err := victim.Call(wire.Envelope{Request: &wire.RequestMsg{Slave: vid}})
	if err != nil || len(assign.Assign.Tasks) == 0 {
		t.Fatalf("victim got no work: %+v, %v", assign, err)
	}
	victim.Close()

	// Worker: a healthy slave that must complete everything.
	eng, _ := slave.NewFarrarEngine("worker", score.DefaultProtein(), db, 0)
	client, err := wire.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := slave.Run(client, eng, slave.Options{
		NotifyEvery: time.Millisecond, Poll: 2 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.Wait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := len(m.Results()); got != len(queries) {
		t.Fatalf("%d results", got)
	}
}
