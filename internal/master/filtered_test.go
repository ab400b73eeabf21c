package master_test

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/master"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/prefilter"
	"repro/internal/sched"
	"repro/internal/score"
	"repro/internal/seq"
	"repro/internal/slave"
	"repro/internal/wire"
)

// plantedJob builds a database where every sequence contains each query
// verbatim, so every hit's alignment lies inside an admitted window and the
// filtered ranking must be byte-identical to the full scan's.
func plantedJob(seed int64, nseqs, seqLen, nqueries, qlen int) (db, queries []*seq.Sequence) {
	rng := rand.New(rand.NewSource(seed))
	const sigma = "ACDEFGHIKLMNPQRSTVWY"
	queries = make([]*seq.Sequence, nqueries)
	for i := range queries {
		res := make([]byte, qlen)
		for j := range res {
			res[j] = sigma[rng.Intn(len(sigma))]
		}
		queries[i] = seq.New("q"+string(rune('0'+i)), "", res)
	}
	db = make([]*seq.Sequence, nseqs)
	for i := range db {
		res := make([]byte, seqLen)
		for j := range res {
			res[j] = sigma[rng.Intn(len(sigma))]
		}
		for qi, q := range queries {
			at := (i*nqueries + qi) * qlen * 2 % (seqLen - qlen)
			copy(res[at:], q.Residues)
		}
		db[i] = seq.New("d"+string(rune('A'+i)), "", res)
	}
	return db, queries
}

func TestFilteredMatchesFullScanRanking(t *testing.T) {
	db, queries := plantedJob(91, 5, 800, 3, 30)
	scheme := score.DefaultProtein()

	run := func(filtered bool, ranges []master.Range) ([]master.QueryResult, master.FilterStats) {
		m, err := master.New(master.Config{
			Queries:    queries,
			DBResidues: dbResidues(db),
			Ranges:     ranges,
			Policy:     &sched.PSS{},
			Filtered:   filtered,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		sse1, _ := slave.NewFarrarEngine("sse1", scheme, db, 0)
		sse2, _ := slave.NewFarrarEngine("sse2", scheme, db, 0)
		runLocal(t, m, []slave.Engine{sse1, sse2})
		if err := m.Wait(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		return m.Results(), m.FilterStats()
	}
	sameHits := func(what string, want, got []master.QueryResult) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d results, want %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Query != want[i].Query || len(got[i].Hits) != len(want[i].Hits) {
				t.Fatalf("%s: result %d is %s with %d hits, want %s with %d", what, i,
					got[i].Query, len(got[i].Hits), want[i].Query, len(want[i].Hits))
			}
			for j := range want[i].Hits {
				wh, gh := want[i].Hits[j], got[i].Hits[j]
				if wh.SeqID != gh.SeqID || wh.Index != gh.Index || wh.Score != gh.Score {
					t.Fatalf("%s: query %s hit %d: want {%s %d %d}, got {%s %d %d}",
						what, want[i].Query, j, wh.SeqID, wh.Index, wh.Score, gh.SeqID, gh.Index, gh.Score)
				}
			}
		}
	}

	full, fullStats := run(false, nil)
	filt, filtStats := run(true, nil)
	if fullStats != (master.FilterStats{}) {
		t.Fatalf("full scan reported filter stats: %+v", fullStats)
	}
	sameHits("filtered vs full", full, filt)

	// The selectivity acceptance: rescored cells strictly below full-scan
	// cells, with every query accounted.
	if filtStats.Queries != len(queries) || filtStats.Windows == 0 {
		t.Fatalf("accounting: %+v", filtStats)
	}
	if filtStats.RescoredCells <= 0 || filtStats.RescoredCells >= filtStats.FullScanCells {
		t.Fatalf("rescored cells %d not strictly below full-scan cells %d", filtStats.RescoredCells, filtStats.FullScanCells)
	}
	if sel := filtStats.Selectivity(); sel <= 0 || sel >= 1 {
		t.Fatalf("selectivity %v not in (0,1)", sel)
	}
	if filtStats.CellsSaved() == 0 {
		t.Fatal("no cells saved")
	}

	// Cut into ranges, every range prefilters and rescores alone: the
	// hits and every accounting field equal the uncut run's.
	for _, n := range []int{2, 5} {
		cut, cutStats := run(true, cutRanges(db, n))
		sameHits("filtered over ranges", filt, cut)
		if cutStats != filtStats {
			t.Fatalf("%d ranges: stats %+v, uncut %+v", n, cutStats, filtStats)
		}
	}
}

// TestFilteredCoreProtocol drives one filtered range task by hand: the
// slave receives the range with the prefilter spec, and its completion ends
// the job with the range's hits and accounting.
func TestFilteredCoreProtocol(t *testing.T) {
	q := seq.New("q0", "", bytes.Repeat([]byte("ACDEFGHI"), 5))
	ranges := []master.Range{{Lo: 0, Hi: 2, Residues: 600}, {Lo: 2, Hi: 3, Residues: 400}}
	core, err := master.NewFilteredCore([]*seq.Sequence{q}, 1000, ranges, prefilter.Spec{}, sched.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Duration(0)

	reg := core.Dispatch(wire.Envelope{Register: &wire.RegisterMsg{Name: "cpu"}}, now)
	id := reg.RegisterAck.Slave

	for i, r := range ranges {
		a := core.Dispatch(wire.Envelope{Request: &wire.RequestMsg{Slave: id}}, now)
		if a.Assign == nil || len(a.Assign.Tasks) != 1 {
			t.Fatalf("range %d: slave got %+v", i, a.Assign)
		}
		spec := a.Assign.Tasks[0]
		if spec.TaskKind != sched.TaskFiltered || spec.Filter == nil || spec.Lo != r.Lo || spec.Hi != r.Hi {
			t.Fatalf("range %d: task is %v [%d,%d) (filter %v)", i, spec.TaskKind, spec.Lo, spec.Hi, spec.Filter)
		}
		if want := r.Residues * sched.PrefilterEquivCells; spec.Cells != want {
			t.Fatalf("range %d: cells = %d, want %d", i, spec.Cells, want)
		}
		hits := []wire.Hit{{SeqID: "d", Index: r.Lo, Score: 40 + i}}
		ack := core.Dispatch(wire.Envelope{Complete: &wire.CompleteMsg{
			Slave: id, Task: spec.ID, Hits: hits,
			Filter: prefilter.Tally{ResiduesScanned: r.Residues, CandidateResidues: 80, Windows: 1, RescoredCells: 80 * int64(q.Len())},
		}}, now)
		if ack.CompleteAck == nil || !ack.CompleteAck.Accepted || ack.CompleteAck.Done != (i == len(ranges)-1) {
			t.Fatalf("range %d completion: %+v", i, ack.CompleteAck)
		}
	}
	results := core.Results()
	if len(results) != 1 || results[0].Query != "q0" || len(results[0].Hits) != 2 || results[0].Hits[0].Score != 41 {
		t.Fatalf("results = %+v", results)
	}
	want := master.FilterStats{Queries: 1, Tally: prefilter.Tally{
		ResiduesScanned: 1000, CandidateResidues: 160, Windows: 2,
		RescoredCells: 160 * int64(q.Len()), FullScanCells: 1000 * int64(q.Len()),
	}}
	if fs := core.FilterStats(); fs != want {
		t.Fatalf("filter stats = %+v, want %+v", fs, want)
	}
}

// TestFilteredJobWithMixedFleet: a GPU slave joins a filtered job
// alongside a CPU slave; both run its tasks without error and between them
// complete every one.
func TestFilteredJobWithMixedFleet(t *testing.T) {
	db, queries := plantedJob(17, 4, 500, 2, 24)
	scheme := score.DefaultProtein()
	m, err := master.New(master.Config{
		Queries:    queries,
		DBResidues: dbResidues(db),
		Policy:     &sched.PSS{},
		Filtered:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	cpu, _ := slave.NewFarrarEngine("cpu", scheme, db, 0)
	gpu := cpu.Replica("gpu", sched.KindGPU)

	var wg sync.WaitGroup
	var cpuN, gpuN int
	var cpuErr, gpuErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		cpuN, cpuErr = slave.Run(wire.Local{H: m}, cpu, slave.Options{NotifyEvery: 10 * time.Millisecond, Poll: 2 * time.Millisecond})
	}()
	go func() {
		defer wg.Done()
		gpuN, gpuErr = slave.Run(wire.Local{H: m}, gpu, slave.Options{NotifyEvery: 10 * time.Millisecond, Poll: 2 * time.Millisecond})
	}()
	wg.Wait()
	if cpuErr != nil || gpuErr != nil {
		t.Fatalf("cpu err %v, gpu err %v", cpuErr, gpuErr)
	}
	if cpuN+gpuN < len(queries) {
		t.Fatalf("cpu completed %d and gpu %d tasks of %d", cpuN, gpuN, len(queries))
	}
	if err := m.Wait(time.Second); err != nil {
		t.Fatal(err)
	}
	if got := len(m.Results()); got != len(queries) {
		t.Fatalf("%d results for %d queries", got, len(queries))
	}
}

// TestFilteredProgressReachesTotal: a filtered job's progress is the
// per-job finished-cell tally, and it ends at exactly the seeded budget —
// nothing is appended mid-job.
func TestFilteredProgressReachesTotal(t *testing.T) {
	db, queries := plantedJob(29, 3, 400, 2, 20)
	var mu sync.Mutex
	var last int64
	m, err := master.New(master.Config{
		Queries:    queries,
		DBResidues: dbResidues(db),
		Ranges:     cutRanges(db, 3),
		Filtered:   true,
		Progress: func(doneCells int64, _ float64) {
			mu.Lock()
			defer mu.Unlock()
			last = max(last, doneCells)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	cpu, _ := slave.NewFarrarEngine("cpu", score.DefaultProtein(), db, 0)
	runLocal(t, m, []slave.Engine{cpu})
	if err := m.Wait(time.Second); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if want := int64(len(queries)) * dbResidues(db) * sched.PrefilterEquivCells; last != want {
		t.Fatalf("progress ended at %d cells, want %d", last, want)
	}
}

// TestFilteredExecEvents: a filtered run's event log carries one "exec"
// line per completed range task with the range's windows and selectivity,
// readable by the platform trace parser (the JSON-shape contract between
// metrics.Event and platform.TraceEvent).
func TestFilteredExecEvents(t *testing.T) {
	db, queries := plantedJob(43, 3, 400, 2, 20)
	var buf bytes.Buffer
	m, err := master.New(master.Config{
		Queries:    queries,
		DBResidues: dbResidues(db),
		Filtered:   true,
		Events:     metrics.NewEventLog(&buf),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	cpu, _ := slave.NewFarrarEngine("cpu", score.DefaultProtein(), db, 0)
	runLocal(t, m, []slave.Engine{cpu})
	if err := m.Wait(time.Second); err != nil {
		t.Fatal(err)
	}
	events, err := platform.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	execs := 0
	for _, e := range events {
		switch e.Kind {
		case metrics.EventAssign, metrics.EventSample, metrics.EventSummary:
			continue
		case metrics.EventExec:
		default:
			t.Fatalf("unexpected %q event", e.Kind)
		}
		execs++
		if e.PE != "cpu" || !e.Completed {
			t.Errorf("exec event on PE %q, completed %v", e.PE, e.Completed)
		}
		if e.Selectivity <= 0 || e.Selectivity >= 1 || e.Windows == 0 {
			t.Errorf("exec event selectivity %v, %d windows", e.Selectivity, e.Windows)
		}
	}
	if execs != len(queries) {
		t.Fatalf("%d exec events, want %d", execs, len(queries))
	}
}
