package cluster_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/cluster"
	"repro/internal/master"
	"repro/internal/metrics"
	"repro/internal/score"
	"repro/internal/seq"
	"repro/internal/slave"
	"repro/internal/sw"
	"repro/internal/wire"
)

func testDB(t *testing.T, name string, scale float64, seed int64) []*seq.Sequence {
	t.Helper()
	db, err := hybridsw.GenerateDatabase(name, scale, seed)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// rankingJSON projects results onto exactly the fields the ranking-identity
// contract covers (query identity, the full hit lists and the best hit's
// alignment) and serializes them, so "byte-identical" is literal.
func rankingJSON(t *testing.T, perQuery []hybridsw.QueryResult) string {
	t.Helper()
	type row struct {
		Query     string
		Hits      []wire.Hit
		Alignment *sw.Alignment
	}
	rows := make([]row, len(perQuery))
	for i, q := range perQuery {
		rows[i] = row{Query: q.Query, Hits: q.Hits, Alignment: q.Alignment}
	}
	b, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// bruteForce is the oracle the fleet is checked against, sharing no code
// with it: every query scored against every database sequence by the scalar
// reference sw.Score, ranked under wire.HitLess.
func bruteForce(queries, db []*seq.Sequence, s score.Scheme) [][]wire.Hit {
	out := make([][]wire.Hit, len(queries))
	for qi, q := range queries {
		hits := make([]wire.Hit, len(db))
		for i, d := range db {
			hits[i] = wire.Hit{SeqID: d.ID, Index: i, Score: sw.Score(q.Residues, d.Residues, s)}
		}
		wire.SortHits(hits)
		out[qi] = hits
	}
	return out
}

// checkAlignments asserts phase 2's one result per query: with align set,
// each query's Alignment is field for field sw.AlignLinearSpace of the
// query against its best hit's sequence; without it, nil.
func checkAlignments(t *testing.T, perQuery []hybridsw.QueryResult, queries, db []*seq.Sequence, s score.Scheme, align bool) {
	t.Helper()
	for qi, qr := range perQuery {
		if !align || len(qr.Hits) == 0 || qr.Hits[0].Score <= 0 {
			if qr.Alignment != nil {
				t.Errorf("query %s: alignment %+v, want none", qr.Query, qr.Alignment)
			}
			continue
		}
		want := sw.AlignLinearSpace(queries[qi].Residues, db[qr.Hits[0].Index].Residues, s)
		if !reflect.DeepEqual(qr.Alignment, want) {
			t.Errorf("query %s: alignment %+v, want AlignLinearSpace against %s: %+v", qr.Query, qr.Alignment, qr.Hits[0].SeqID, want)
		}
	}
}

// checkFullRanking asserts a full-scan result is exactly the oracle's
// ranking cut to topK (alignment payloads aside).
func checkFullRanking(t *testing.T, perQuery []hybridsw.QueryResult, oracle [][]wire.Hit, topK int) {
	t.Helper()
	for qi, qr := range perQuery {
		want := oracle[qi]
		if topK > 0 && len(want) > topK {
			want = want[:topK]
		}
		if len(qr.Hits) != len(want) {
			t.Fatalf("query %s: %d hits, want %d", qr.Query, len(qr.Hits), len(want))
		}
		for i, h := range qr.Hits {
			if h.SeqID != want[i].SeqID || h.Index != want[i].Index || h.Score != want[i].Score {
				t.Fatalf("query %s rank %d: got {%s %d %d}, brute force has {%s %d %d}", qr.Query, i,
					h.SeqID, h.Index, h.Score, want[i].SeqID, want[i].Index, want[i].Score)
			}
		}
	}
}

// checkFilteredRanking asserts what filtered mode promises: hits ranked
// under wire.HitLess, no score above the full scan's for the same sequence,
// and the planted query's source sequence on top at its exact score.
func checkFilteredRanking(t *testing.T, perQuery []hybridsw.QueryResult, oracle [][]wire.Hit, planted, source int) {
	t.Helper()
	for qi, qr := range perQuery {
		full := make(map[int]int, len(oracle[qi]))
		for _, h := range oracle[qi] {
			full[h.Index] = h.Score
		}
		for i, h := range qr.Hits {
			if h.Score > full[h.Index] {
				t.Errorf("query %s: filtered score %d for %s exceeds the full scan's %d", qr.Query, h.Score, h.SeqID, full[h.Index])
			}
			if i > 0 && wire.HitLess(h, qr.Hits[i-1]) {
				t.Errorf("query %s: hits %d and %d out of order", qr.Query, i-1, i)
			}
		}
	}
	top := perQuery[planted].Hits[0]
	if want := oracle[planted][0]; top.Index != source || top.Score != want.Score {
		t.Errorf("planted query: top hit {%s %d}, want its source %s at the full scan's %d",
			top.SeqID, top.Score, want.SeqID, want.Score)
	}
}

// TestClusterMatchesLocalRanking is the ranking property test: across a
// seeded scheme x database x mode x top-k matrix, the sharded fleet is
// checked against the brute-force oracle (exact ranking in full mode, the
// filtered-mode promises otherwise), and the one-shard search must be
// byte-identical to the three-shard one, which pins the merge.
func TestClusterMatchesLocalRanking(t *testing.T) {
	altScheme := hybridsw.DefaultScheme()
	altScheme.Gap = score.AffineGap(5, 1)
	schemes := []struct {
		name string
		s    hybridsw.Scheme
	}{
		{"blosum62-10-2", hybridsw.DefaultScheme()},
		{"blosum62-5-1", altScheme},
	}
	dbs := []struct {
		name  string
		scale float64
		seed  int64
	}{
		{"Ensembl Dog Proteins", 0.0006, 13},
		{"UniProtKB/SwissProt", 0.0015, 2},
	}
	for _, dbc := range dbs {
		db := testDB(t, dbc.name, dbc.scale, dbc.seed)
		// Three stitched queries plus one planted verbatim from a database
		// member, whose source the prefilter's exact seeds must find.
		source := len(db) / 2
		queries := hybridsw.GenerateQueries(db, 3, 40, 100, dbc.seed+1)
		planted := len(queries)
		queries = append(queries, seq.New("planted", "", db[source].Residues[:min(80, db[source].Len())]))
		for _, sc := range schemes {
			oracle := bruteForce(queries, db, sc.s)
			if oracle[planted][0].Index != source {
				t.Fatalf("%s: planted query's best full-scan hit is %s, not its source", dbc.name, oracle[planted][0].SeqID)
			}
			for _, mode := range []string{"full", "filtered"} {
				for _, topK := range []int{0, 3} {
					// Align in the top-3 cells of both modes; tracebacks are
					// expensive to run everywhere.
					align := topK == 3
					name := fmt.Sprintf("%s/%s/%s/topk=%d", dbc.name, sc.name, mode, topK)
					t.Run(name, func(t *testing.T) {
						one, err := hybridsw.Search(queries, db, hybridsw.Platform{
							SSECores: 1, Policy: "PSS", TopK: topK,
							Scheme: sc.s, Mode: mode, AlignBest: align,
						})
						if err != nil {
							t.Fatal(err)
						}
						fleet, err := cluster.New(cluster.Config{
							DB: db, Shards: 3, Replicas: 2, Scheme: sc.s,
						})
						if err != nil {
							t.Fatal(err)
						}
						rep, err := fleet.SearchContext(context.Background(), queries, cluster.Params{
							Policy: "PSS", TopK: topK, Mode: mode, AlignBest: align,
						})
						if err != nil {
							t.Fatal(err)
						}
						checkAlignments(t, one.PerQuery, queries, db, sc.s, align)
						checkAlignments(t, rep.PerQuery, queries, db, sc.s, align)
						got, want := rankingJSON(t, rep.PerQuery), rankingJSON(t, one.PerQuery)
						if got != want {
							t.Errorf("three-shard ranking diverges from one-shard:\n got %s\nwant %s", got, want)
						}
						if mode == "filtered" {
							checkFilteredRanking(t, rep.PerQuery, oracle, planted, source)
							if rep.Filter == nil || one.Filter == nil {
								t.Fatal("filtered report missing Filter stats")
							}
							// No accounting field depends on the shard count.
							if *rep.Filter != *one.Filter {
								t.Errorf("filter accounting diverges: three shards %+v one shard %+v", rep.Filter, one.Filter)
							}
						} else {
							checkFullRanking(t, rep.PerQuery, oracle, topK)
							if rep.Cells != one.Cells {
								t.Errorf("cell totals diverge: three shards %d one shard %d", rep.Cells, one.Cells)
							}
						}
					})
				}
			}
		}
	}
}

// TestFilteredShardsMatchUncutRun: a filtered search's ranges each
// prefilter and rescore alone, so over any shard count and replica count
// the hits and every accounting field equal one master's run over the
// whole, uncut database.
func TestFilteredShardsMatchUncutRun(t *testing.T) {
	db := testDB(t, "UniProtKB/SwissProt", 0.0015, 5)
	queries := hybridsw.GenerateQueries(db, 3, 40, 120, 6)
	queries = append(queries, seq.New("planted", "", db[len(db)/3].Residues[:min(90, db[len(db)/3].Len())]))
	scheme := hybridsw.DefaultScheme()
	for _, topK := range []int{0, 5} {
		want, wantStats := uncutFiltered(t, queries, db, scheme, topK)
		for _, shards := range []int{1, 2, 3} {
			for _, replicas := range []int{1, 2} {
				fleet, err := cluster.New(cluster.Config{DB: db, Shards: shards, Replicas: replicas, Scheme: scheme})
				if err != nil {
					t.Fatal(err)
				}
				rep, err := fleet.SearchContext(context.Background(), queries, cluster.Params{Policy: "PSS", Adjust: true, TopK: topK, Mode: "filtered"})
				if err != nil {
					t.Fatal(err)
				}
				if got, w := rankingJSON(t, rep.PerQuery), rankingJSON(t, want); got != w {
					t.Errorf("topk=%d %d shards x %d replicas: hits diverge from the uncut run:\n got %s\nwant %s", topK, shards, replicas, got, w)
				}
				if *rep.Filter != wantStats {
					t.Errorf("topk=%d %d shards x %d replicas: accounting %+v, uncut %+v", topK, shards, replicas, *rep.Filter, wantStats)
				}
			}
		}
	}
}

// uncutFiltered runs a filtered job on one master with one task per query
// over the whole database, served by one CPU engine.
func uncutFiltered(t *testing.T, queries, db []*seq.Sequence, scheme score.Scheme, topK int) ([]master.QueryResult, master.FilterStats) {
	t.Helper()
	var residues int64
	for _, d := range db {
		residues += int64(d.Len())
	}
	m, err := master.New(master.Config{Queries: queries, DBResidues: residues, Filtered: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	eng, err := slave.NewFarrarEngine("uncut", scheme, db, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := slave.Run(wire.Local{H: m}, eng, slave.Options{Poll: time.Millisecond, TopK: topK}); err != nil {
		t.Fatal(err)
	}
	return m.Results(), m.FilterStats()
}

// TestOneShardEngineMix runs the single-node shape — one shard whose
// replicas are a GPU and a CPU engine — against the oracle: both engine
// kinds produce the exact ranking in full mode, both run a filtered search,
// whose ranking is the CPU-only and the GPU-only fleets', and a search that
// loses every replica of its shard mid-scan fails in either mode.
func TestOneShardEngineMix(t *testing.T) {
	db := testDB(t, "Ensembl Dog Proteins", 0.0008, 3)
	queries := hybridsw.GenerateQueries(db, 4, 40, 120, 4)
	oracle := bruteForce(queries, db, hybridsw.DefaultScheme())
	reg := metrics.NewRegistry()
	fleet, err := cluster.New(cluster.Config{DB: db, Shards: 1, GPUs: 1, Replicas: 1, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if h := fleet.Health(); len(h) != 1 || h[0].Replicas != 2 || h[0].Live != 2 {
		t.Fatalf("health = %+v, want one shard with a GPU and a CPU engine", h)
	}
	rep, err := fleet.SearchContext(context.Background(), queries, cluster.Params{Adjust: true, TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	checkFullRanking(t, rep.PerQuery, oracle, 5)
	// Each engine alone must agree too: kill one, then the other.
	for killed := 0; killed < 2; killed++ {
		if err := fleet.KillReplica(0, killed); err != nil {
			t.Fatal(err)
		}
		rep, err := fleet.SearchContext(context.Background(), queries, cluster.Params{TopK: 5})
		if err != nil {
			t.Fatalf("replica %d dead: %v", killed, err)
		}
		checkFullRanking(t, rep.PerQuery, oracle, 5)
		if err := fleet.ReviveReplica(0, killed); err != nil {
			t.Fatal(err)
		}
	}

	// Both engines register with the shard master of a filtered search,
	// and the hits are those of a fleet of either kind alone.
	registrations := reg.Counter("master_registrations_total", "")
	before := registrations.Value()
	filt, err := fleet.SearchContext(context.Background(), queries, cluster.Params{Mode: "filtered", TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := registrations.Value() - before; got != 2 {
		t.Errorf("filtered search registered %v slaves, want the GPU and the CPU replica", got)
	}
	if filt.Filter == nil || filt.Filter.RescoredCells >= filt.Filter.FullScanCells {
		t.Errorf("filtered accounting = %+v", filt.Filter)
	}
	got := rankingJSON(t, filt.PerQuery)
	for _, cfg := range []cluster.Config{{DB: db, Replicas: 1}, {DB: db, GPUs: 1}} {
		alone, err := cluster.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if h := alone.Health(); h[0].Replicas != 1 {
			t.Errorf("%d GPUs, %d CPUs: shard has %d engines, want 1", cfg.GPUs, cfg.Replicas, h[0].Replicas)
		}
		want, err := alone.SearchContext(context.Background(), queries, cluster.Params{Mode: "filtered", TopK: 5})
		if err != nil {
			t.Fatalf("%d GPUs, %d CPUs: %v", cfg.GPUs, cfg.Replicas, err)
		}
		if w := rankingJSON(t, want.PerQuery); got != w {
			t.Errorf("filtered hits %s, the %d-GPU %d-CPU fleet's %s", got, cfg.GPUs, cfg.Replicas, w)
		}
	}

	// A search whose shard loses every replica mid-scan cannot finish: it
	// must fail rather than report a partial ranking. The kill lands at
	// the shard's first progress, with most of the 64 range tasks unrun,
	// and stops both loops before their next task.
	for _, mode := range []string{"filtered", "full"} {
		var kill sync.Once
		_, err = fleet.SearchContext(context.Background(), queries, cluster.Params{
			Mode: mode,
			OnShards: func([]cluster.ShardStatus) {
				kill.Do(func() {
					for r := 0; r < 2; r++ {
						if err := fleet.KillReplica(0, r); err != nil {
							t.Error(err)
						}
					}
				})
			},
		})
		if err == nil {
			t.Errorf("%s search survived the death of every replica", mode)
		}
		for r := 0; r < 2; r++ {
			if err := fleet.ReviveReplica(0, r); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestClusterFailover kills a replica mid-scan, while it holds range tasks
// of the query in flight — on a two-shard fleet and on the one-shard
// single-node shape — and asserts the surviving replica finishes the job
// with the oracle's exact ranking.
func TestClusterFailover(t *testing.T) {
	db := testDB(t, "Ensembl Dog Proteins", 0.002, 7)
	queries := hybridsw.GenerateQueries(db, 5, 80, 160, 8)
	oracle := bruteForce(queries, db, hybridsw.DefaultScheme())

	for _, shards := range []int{2, 1} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			fleet, err := cluster.New(cluster.Config{DB: db, Shards: shards, Replicas: 2, Registry: metrics.NewRegistry()})
			if err != nil {
				t.Fatal(err)
			}
			// Kill shard 0's first replica the moment the shard reports real
			// progress, so the crash lands mid-scan rather than before or
			// after.
			var kill sync.Once
			rep, err := fleet.SearchContext(context.Background(), queries, cluster.Params{
				OnShards: func(shards []cluster.ShardStatus) {
					if shards[0].Cells > 0 {
						kill.Do(func() {
							if err := fleet.KillReplica(0, 0); err != nil {
								t.Error(err)
							}
						})
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			// Every hit is kept, so a range the dead replica held that was
			// lost, or merged twice, changes a query's hit count.
			checkFullRanking(t, rep.PerQuery, oracle, 0)
			if rep.Shards[0].Failovers < 1 {
				t.Errorf("shard 0 absorbed no failover (report %+v)", rep.Shards[0])
			}
			for _, h := range fleet.Health() {
				if h.Live == 0 {
					t.Errorf("shard %d has no live replica: surviving replicas should keep every shard live", h.Shard)
				}
			}
			if err := fleet.ReviveReplica(0, 0); err != nil {
				t.Fatal(err)
			}
			if health := fleet.Health(); health[0].Live != 2 {
				t.Errorf("revived shard 0 reports %d live replicas, want 2", health[0].Live)
			}
		})
	}
}

// TestReviveMidJobKeepsReplicaDead: a replica killed and revived while a
// job runs stays dead for that job. The job counts one failover and
// finishes on the survivor with the oracle's exact ranking; only later
// jobs see the revived replica.
func TestReviveMidJobKeepsReplicaDead(t *testing.T) {
	db := testDB(t, "Ensembl Dog Proteins", 0.002, 7)
	queries := hybridsw.GenerateQueries(db, 5, 80, 160, 8)
	oracle := bruteForce(queries, db, hybridsw.DefaultScheme())
	fleet, err := cluster.New(cluster.Config{DB: db, Shards: 1, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	var bounce sync.Once
	rep, err := fleet.SearchContext(context.Background(), queries, cluster.Params{
		OnShards: func([]cluster.ShardStatus) {
			bounce.Do(func() {
				if err := fleet.KillReplica(0, 0); err != nil {
					t.Error(err)
				}
				if err := fleet.ReviveReplica(0, 0); err != nil {
					t.Error(err)
				}
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkFullRanking(t, rep.PerQuery, oracle, 0)
	if got := rep.Shards[0].Failovers; got != 1 {
		t.Errorf("job counted %d failovers, want 1: the revived replica rejoined the running job", got)
	}
	if live := fleet.Health()[0].Live; live != 2 {
		t.Errorf("%d live replicas after the revival, want 2", live)
	}
}

// TestSearchesLeaveNoGoroutines: cancelled and completed searches alike
// stop every goroutine they start (replica loops, the shard job's stop
// hooks, the shard masters), so the process returns to its baseline.
func TestSearchesLeaveNoGoroutines(t *testing.T) {
	db := testDB(t, "Ensembl Dog Proteins", 0.0008, 3)
	queries := hybridsw.GenerateQueries(db, 2, 40, 80, 4)
	fleet, err := cluster.New(cluster.Config{DB: db, Shards: 2, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	for i := 0; i < 30; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		// Cancel on the first progress, so the cancellation lands while
		// the replicas hold tasks.
		_, err := fleet.SearchContext(ctx, queries, cluster.Params{Adjust: true,
			OnShards: func([]cluster.ShardStatus) { cancel() }})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled search %d returned %v, want context.Canceled", i, err)
		}
		if _, err := fleet.SearchContext(context.Background(), queries, cluster.Params{Adjust: true}); err != nil {
			t.Fatalf("search %d: %v", i, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("%d goroutines after 60 searches, baseline %d", n, baseline)
	}
}

// TestReportAggregatesGCUPS is the regression test for cross-shard
// throughput accounting: Report.Cells must sum every shard's work (not
// just the last completing engine's), with a per-shard breakdown.
func TestReportAggregatesGCUPS(t *testing.T) {
	db := testDB(t, "Ensembl Dog Proteins", 0.001, 21)
	queries := hybridsw.GenerateQueries(db, 3, 60, 120, 22)
	fleet, err := cluster.New(cluster.Config{DB: db, Shards: 3, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fleet.SearchContext(context.Background(), queries, cluster.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Shards) != 3 {
		t.Fatalf("%d shard reports, want 3", len(rep.Shards))
	}
	var sum int64
	for _, s := range rep.Shards {
		if s.Cells <= 0 {
			t.Errorf("shard %d reports %d cells", s.Shard, s.Cells)
		}
		if s.Elapsed <= 0 || s.GCUPS <= 0 {
			t.Errorf("shard %d breakdown incomplete: %+v", s.Shard, s)
		}
		sum += s.Cells
	}
	if rep.Cells != sum {
		t.Errorf("Report.Cells = %d, want the cross-shard sum %d", rep.Cells, sum)
	}
	var queryRes, dbRes int64
	for _, q := range queries {
		queryRes += int64(q.Len())
	}
	for _, d := range db {
		dbRes += int64(d.Len())
	}
	if want := queryRes * dbRes; rep.Cells != want {
		t.Errorf("Report.Cells = %d, want |queries| x |db| = %d", rep.Cells, want)
	}
	if g := rep.GCUPS(); g <= 0 {
		t.Errorf("aggregate GCUPS = %v", g)
	}
}

// TestFleetValidation covers the constructor's error paths and the
// replica-addressing seam.
func TestFleetValidation(t *testing.T) {
	db := testDB(t, "Ensembl Dog Proteins", 0.0004, 5)
	if _, err := cluster.New(cluster.Config{}); err == nil {
		t.Error("empty database accepted")
	}
	if _, err := cluster.New(cluster.Config{DB: db, Shards: len(db) + 1}); err == nil {
		t.Error("more shards than sequences accepted")
	}
	fleet, err := cluster.New(cluster.Config{DB: db, Shards: 2, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := fleet.KillReplica(9, 0); err == nil {
		t.Error("kill of unknown shard accepted")
	}
	if err := fleet.KillReplica(0, 9); err == nil {
		t.Error("kill of unknown replica accepted")
	}
	if err := fleet.ReviveReplica(9, 0); err == nil {
		t.Error("revive of unknown shard accepted")
	}
	queries := hybridsw.GenerateQueries(db, 1, 50, 50, 6)
	if _, err := fleet.SearchContext(context.Background(), nil, cluster.Params{}); err == nil {
		t.Error("empty query set accepted")
	}
	if _, err := fleet.SearchContext(context.Background(), queries, cluster.Params{Policy: "bogus"}); err == nil {
		t.Error("bad policy accepted")
	}
	if _, err := fleet.SearchContext(context.Background(), queries, cluster.Params{Mode: "bogus"}); err == nil {
		t.Error("bad mode accepted")
	}
	// A shard with every replica dead fails the job instead of hanging.
	if err := fleet.KillReplica(1, 0); err != nil {
		t.Fatal(err)
	}
	if live := fleet.Health()[1].Live; live != 0 {
		t.Errorf("shard 1 reports %d live replicas after its only one died", live)
	}
	if _, err := fleet.SearchContext(context.Background(), queries, cluster.Params{}); err == nil {
		t.Error("search with a replica-less shard succeeded")
	}
}

// TestRangeTasksMatchBruteForce is the exactness matrix of database-range
// tasks: database sizes from one sequence (fewer sequences than ranges) to
// 300, one to three CPU engines, a GPU+CPU mix and a lone GPU engine, one
// and two shards, and three top-k cuts, each checked against the
// brute-force oracle. Every database repeats three sequences in turn, so
// equal scores straddle every range and shard boundary and only the global
// index can order them; two of the queries share one ID, so results must
// merge by position; and the k=10 cells ask for alignments: each query
// gets the one traceback of its global best hit, whichever engine kind
// scanned its range, and the other cells get none.
func TestRangeTasksMatchBruteForce(t *testing.T) {
	motifs := testDB(t, "Ensembl Dog Proteins", 0.0002, 31)[:3]
	queries := hybridsw.GenerateQueries(motifs, 3, 30, 60, 32)
	queries[2] = seq.New(queries[0].ID, "", queries[2].Residues)
	engines := []struct {
		name       string
		gpus, cpus int
	}{{"1cpu", 0, 1}, {"2cpu", 0, 2}, {"3cpu", 0, 3}, {"gpu+cpu", 1, 1}, {"gpu", 1, 0}}
	for _, n := range []int{1, 2, 7, 300} {
		db := make([]*seq.Sequence, n)
		for i := range db {
			db[i] = seq.New(fmt.Sprintf("s%03d", i), "", motifs[i%3].Residues)
		}
		oracle := bruteForce(queries, db, hybridsw.DefaultScheme())
		for _, shards := range []int{1, 2} {
			if shards > n {
				continue
			}
			for _, e := range engines {
				fleet, err := cluster.New(cluster.Config{DB: db, Shards: shards, GPUs: e.gpus, Replicas: e.cpus})
				if err != nil {
					t.Fatal(err)
				}
				for _, topK := range []int{0, 1, 10} {
					align := topK == 10
					t.Run(fmt.Sprintf("db=%d/shards=%d/%s/topk=%d", n, shards, e.name, topK), func(t *testing.T) {
						rep, err := fleet.SearchContext(context.Background(), queries, cluster.Params{Adjust: true, TopK: topK, AlignBest: align})
						if err != nil {
							t.Fatal(err)
						}
						checkFullRanking(t, rep.PerQuery, oracle, topK)
						for qi, qr := range rep.PerQuery {
							if qr.Query != queries[qi].ID {
								t.Errorf("result %d is for %q, want %q", qi, qr.Query, queries[qi].ID)
							}
						}
						checkAlignments(t, rep.PerQuery, queries, db, hybridsw.DefaultScheme(), align)
					})
				}
			}
		}
	}
}

// TestSearchSameWithAndWithoutRegistry: instrumentation observes a search
// and never steers it. The same fleet shape over a nil and a non-nil
// registry returns the same ranking, and the instrumented one counts it.
func TestSearchSameWithAndWithoutRegistry(t *testing.T) {
	db := testDB(t, "Ensembl Dog Proteins", 0.0006, 13)
	queries := hybridsw.GenerateQueries(db, 3, 40, 100, 14)
	for _, mode := range []string{"full", "filtered"} {
		reg := metrics.NewRegistry()
		var rankings []string
		for _, r := range []*metrics.Registry{nil, reg} {
			fleet, err := cluster.New(cluster.Config{DB: db, Shards: 2, Replicas: 2, Registry: r})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := fleet.SearchContext(context.Background(), queries, cluster.Params{Policy: "PSS", TopK: 5, Mode: mode, AlignBest: true})
			if err != nil {
				t.Fatal(err)
			}
			rankings = append(rankings, rankingJSON(t, rep.PerQuery))
		}
		if rankings[0] != rankings[1] {
			t.Errorf("%s: ranking depends on the registry:\n nil %s\n set %s", mode, rankings[0], rankings[1])
		}
		if got := cluster.NewMetrics(reg).Searches.With(mode).Value(); got != 1 {
			t.Errorf("%s: instrumented fleet counted %v searches, want 1", mode, got)
		}
	}
}

// FuzzSearchVsBruteForce fuzzes whole full-mode searches against the
// brute-force oracle: a random database whose lengths straddle the
// kernel's 1500-residue lane threshold, one to three queries (one of them
// cut from a database sequence, so some scores reach the 8-bit ceiling
// and escalate), BLOSUM62 or a DNA match/mismatch scheme, the local
// backend's one shard or two, one or two CPU replicas plus none or one GPU
// engine per shard, and top-k cuts including k <= 0. Every search runs the
// tiers the host dispatches to, so on an AVX2 host it crosses the
// inter-sequence lanes. Filtered mode is not exact and is left out. Wired
// into make fuzz-smoke.
func FuzzSearchVsBruteForce(f *testing.F) {
	f.Add(int64(1), []byte{10, 200, 40, 250, 3, 90}, []byte{25, 60}, uint8(0))
	f.Add(int64(2), []byte{255, 254, 1, 1, 1, 120}, []byte{5}, uint8(0x5B))
	f.Add(int64(3), []byte{0, 7, 77, 177, 247}, []byte{90, 1, 30}, uint8(0xA6))
	f.Fuzz(func(t *testing.T, seed int64, lens, qlens []byte, shape uint8) {
		if len(lens) == 0 || len(qlens) == 0 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		s, letters := score.DefaultProtein(), "ACDEFGHIKLMNPQRSTVWY"
		if shape&1 != 0 {
			s, letters = score.Scheme{Matrix: score.NewMatchMismatch(seq.DNA, 2, -3), Gap: score.AffineGap(5, 2)}, "ACGT"
		}
		residues := func(n int) []byte {
			out := make([]byte, n)
			for i := range out {
				out[i] = letters[rng.Intn(len(letters))]
			}
			return out
		}
		// Bytes from 240 up land within 8 residues of the lane threshold
		// (1500 aa); the rest run 1 to 240.
		db := make([]*seq.Sequence, min(len(lens), 40))
		for i := range db {
			n := 1 + int(lens[i])
			if lens[i] >= 240 {
				n = 1500 - 8 + int(lens[i]-240)
			}
			db[i] = seq.New(fmt.Sprintf("s%02d", i), "", residues(n))
		}
		queries := make([]*seq.Sequence, min(len(qlens), 3))
		for i := range queries {
			queries[i] = seq.New(fmt.Sprintf("q%d", i), "", residues(1+int(qlens[i])))
		}
		if src := db[rng.Intn(len(db))].Residues; len(src) > 20 {
			queries[0] = seq.New("q0", "", src[len(src)/4:len(src)/4+min(len(src)/2, 150)])
		}
		shards := 1 + int(shape>>1&1)
		if shards > len(db) {
			shards = 1
		}
		// shape>>3 picks top-k by its remainder mod 6 and the GPU engine by
		// the parity of its quotient, which no other draw reads, so older
		// inputs keep their database, queries and cut.
		topK := []int{-1, 0, 1, 3, 7, 100}[int(shape>>3)%6]
		gpus := int(shape>>3) / 6 % 2
		fleet, err := cluster.New(cluster.Config{DB: db, Shards: shards, GPUs: gpus, Replicas: 1 + int(shape>>2&1), Scheme: s})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := fleet.SearchContext(context.Background(), queries, cluster.Params{Adjust: true, TopK: topK})
		if err != nil {
			t.Fatal(err)
		}
		checkFullRanking(t, rep.PerQuery, bruteForce(queries, db, s), topK)
	})
}
