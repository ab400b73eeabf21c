package master_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/master"
	"repro/internal/sched"
	"repro/internal/score"
	"repro/internal/seq"
	"repro/internal/slave"
	"repro/internal/sw"
	"repro/internal/wire"
)

func testJob(t *testing.T, nQueries int) ([]*seq.Sequence, []*seq.Sequence) {
	t.Helper()
	p := dataset.Profile{Name: "tiny", NumSeqs: 20, MeanLen: 70, SigmaLn: 0.5, MinLen: 20, MaxLen: 200}
	db := dataset.Generate(p, 42)
	queries := dataset.Queries(db, nQueries, 40, 150, 43)
	return db, queries
}

func dbResidues(db []*seq.Sequence) int64 {
	var n int64
	for _, d := range db {
		n += int64(d.Len())
	}
	return n
}

// cutRanges cuts db into n contiguous ranges of near-equal sequence count,
// the master.Config.Ranges a fleet would compute for it.
func cutRanges(db []*seq.Sequence, n int) []master.Range {
	ranges := make([]master.Range, n)
	for i := range ranges {
		r := master.Range{Lo: i * len(db) / n, Hi: (i + 1) * len(db) / n}
		r.Residues = dbResidues(db[r.Lo:r.Hi])
		ranges[i] = r
	}
	return ranges
}

// bruteForce ranks every database sequence for one query by the scalar
// reference, sharing no code with the engines: the oracle for merged hits.
func bruteForce(q *seq.Sequence, db []*seq.Sequence) []wire.Hit {
	hits := make([]wire.Hit, len(db))
	for i, d := range db {
		hits[i] = wire.Hit{SeqID: d.ID, Index: i, Score: sw.Score(q.Residues, d.Residues, score.DefaultProtein())}
	}
	wire.SortHits(hits)
	return hits
}

// checkRanking asserts a query's merged hits are exactly the oracle's.
func checkRanking(t *testing.T, r master.QueryResult, want []wire.Hit) {
	t.Helper()
	if len(r.Hits) != len(want) {
		t.Fatalf("query %s: %d hits, want %d (a range lost or counted twice)", r.Query, len(r.Hits), len(want))
	}
	for i, h := range r.Hits {
		if h.SeqID != want[i].SeqID || h.Index != want[i].Index || h.Score != want[i].Score {
			t.Fatalf("query %s rank %d: got {%s %d %d}, brute force has {%s %d %d}", r.Query, i,
				h.SeqID, h.Index, h.Score, want[i].SeqID, want[i].Index, want[i].Score)
		}
	}
}

// runLocal drives a master and a set of in-process engines to completion.
func runLocal(t *testing.T, m *master.Master, engines []slave.Engine) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, len(engines))
	for i, eng := range engines {
		wg.Add(1)
		go func(i int, eng slave.Engine) {
			defer wg.Done()
			_, errs[i] = slave.Run(wire.Local{H: m}, eng, slave.Options{
				NotifyEvery: 10 * time.Millisecond,
				Poll:        5 * time.Millisecond,
			})
		}(i, eng)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("slave %d: %v", i, err)
		}
	}
}

func TestEndToEndLocalCorrectness(t *testing.T) {
	db, queries := testJob(t, 6)
	m, err := master.New(master.Config{
		Queries:    queries,
		DBResidues: dbResidues(db),
		Policy:     &sched.PSS{},
		Adjust:     true,
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
	results := m.Results()
	if len(results) != len(queries) {
		t.Fatalf("%d results for %d queries", len(results), len(queries))
	}
	for i, r := range results {
		if r.Query != queries[i].ID {
			t.Fatalf("result %d for %s, want %s", i, r.Query, queries[i].ID)
		}
		if len(r.Hits) != len(db) {
			t.Fatalf("query %s: %d hits, want %d", r.Query, len(r.Hits), len(db))
		}
		// The best hit must carry the true optimal score over the database.
		best := 0
		for _, d := range db {
			if sc := sw.Score(queries[i].Residues, d.Residues, score.DefaultProtein()); sc > best {
				best = sc
			}
		}
		if r.Hits[0].Score != best {
			t.Fatalf("query %s: top hit %d, reference best %d", r.Query, r.Hits[0].Score, best)
		}
	}
}

func TestEndToEndTCP(t *testing.T) {
	db, queries := testJob(t, 4)
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
			defer client.Close()
			if _, err := slave.Run(client, eng, slave.Options{
				NotifyEvery: 10 * time.Millisecond,
				Poll:        5 * time.Millisecond,
				TopK:        5,
			}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if err := m.Wait(time.Second); err != nil {
		t.Fatal(err)
	}
	for _, r := range m.Results() {
		if len(r.Hits) != 5 {
			t.Fatalf("TopK=5 but query %s has %d hits", r.Query, len(r.Hits))
		}
	}
}

func TestMasterValidation(t *testing.T) {
	if _, err := master.New(master.Config{}); err == nil {
		t.Error("no queries accepted")
	}
	_, queries := testJob(t, 1)
	if _, err := master.New(master.Config{Queries: queries}); err == nil {
		t.Error("zero DBResidues accepted")
	}
	empty := []*seq.Sequence{seq.New("e", "", nil)}
	if _, err := master.New(master.Config{Queries: empty, DBResidues: 10}); err == nil {
		t.Error("empty query accepted")
	}
}

func TestMasterWaitTimeout(t *testing.T) {
	_, queries := testJob(t, 1)
	m, _ := master.New(master.Config{Queries: queries, DBResidues: 100})
	if err := m.Wait(10 * time.Millisecond); err == nil {
		t.Error("Wait should time out with no slaves")
	}
}

func TestSlaveGoneRequeues(t *testing.T) {
	_, queries := testJob(t, 2)
	m, _ := master.New(master.Config{Queries: queries, DBResidues: 100, Policy: sched.SS{}})
	resp := m.Dispatch(wire.Envelope{Register: &wire.RegisterMsg{Name: "dying"}})
	id := resp.RegisterAck.Slave
	assign := m.Dispatch(wire.Envelope{Request: &wire.RequestMsg{Slave: id}})
	if len(assign.Assign.Tasks) != 1 {
		t.Fatal("setup failed")
	}
	m.SlaveGone(id)
	if got := m.Coordinator().Pool().Ready(); got != 2 {
		t.Fatalf("ready = %d after slave death, want 2", got)
	}
}

func TestDispatchUnknownMessage(t *testing.T) {
	_, queries := testJob(t, 1)
	m, _ := master.New(master.Config{Queries: queries, DBResidues: 100})
	if resp := m.Dispatch(wire.Envelope{}); resp.Error == "" {
		t.Error("empty envelope should error")
	}
}

func TestEndToEndWithSSPolicyNoAdjust(t *testing.T) {
	db, queries := testJob(t, 5)
	m, _ := master.New(master.Config{
		Queries:    queries,
		DBResidues: dbResidues(db),
		Policy:     sched.SS{},
		Adjust:     false,
	})
	eng, _ := slave.NewFarrarEngine("solo", score.DefaultProtein(), db, 0)
	runLocal(t, m, []slave.Engine{eng})
	if err := m.Wait(time.Second); err != nil {
		t.Fatal(err)
	}
	if got := len(m.Results()); got != 5 {
		t.Fatalf("%d results", got)
	}
}

func TestDispatchRejectsMalformedIDs(t *testing.T) {
	_, queries := testJob(t, 2)
	m, _ := master.New(master.Config{Queries: queries, DBResidues: 100, Policy: sched.SS{}})
	// Nothing registered: every slave reference is invalid and must yield
	// an error envelope, never a panic.
	cases := []wire.Envelope{
		{Request: &wire.RequestMsg{Slave: 0}},
		{Request: &wire.RequestMsg{Slave: -3}},
		{Progress: &wire.ProgressMsg{Slave: 9, Rate: 1, Cells: 1}},
		{Complete: &wire.CompleteMsg{Slave: 0, Task: 0}},
	}
	for i, c := range cases {
		if resp := m.Dispatch(c); resp.Error == "" {
			t.Errorf("case %d: malformed message accepted", i)
		}
	}
	// A registered slave completing a bogus task is also rejected.
	reg := m.Dispatch(wire.Envelope{Register: &wire.RegisterMsg{Name: "s"}})
	id := reg.RegisterAck.Slave
	if resp := m.Dispatch(wire.Envelope{Complete: &wire.CompleteMsg{Slave: id, Task: 99}}); resp.Error == "" {
		t.Error("bogus task accepted")
	}
	// SlaveGone with a junk ID is a no-op, not a panic.
	m.SlaveGone(-1)
	m.SlaveGone(42)
}
