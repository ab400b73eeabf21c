package slave

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/farrar"
	"repro/internal/metrics"
	"repro/internal/prefilter"
	"repro/internal/score"
	"repro/internal/seq"
	"repro/internal/sw"
	"repro/internal/wire"
)

func tinyDB(t *testing.T) []*seq.Sequence {
	t.Helper()
	p := dataset.Profile{Name: "tiny", NumSeqs: 25, MeanLen: 80, SigmaLn: 0.5, MinLen: 20, MaxLen: 300}
	return dataset.Generate(p, 101)
}

func TestFarrarEngineScoresMatchReference(t *testing.T) {
	db := tinyDB(t)
	eng, err := NewFarrarEngine("sse0", score.DefaultProtein(), db, 0)
	if err != nil {
		t.Fatal(err)
	}
	q := dataset.Queries(db, 1, 60, 60, 7)[0]
	var progressCalls int
	hits, err := eng.Search(q, func(int64) { progressCalls++ }, make(chan struct{}))
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != len(db) {
		t.Fatalf("%d hits", len(hits))
	}
	for i, h := range hits {
		want := sw.Score(q.Residues, db[i].Residues, score.DefaultProtein())
		if h.Score != want || h.SeqID != db[i].ID || h.Index != i {
			t.Fatalf("hit %d = %+v, want score %d", i, h, want)
		}
	}
	if progressCalls == 0 {
		t.Error("no progress callbacks")
	}
	if eng.DatabaseResidues() <= 0 || eng.Kind().String() != "CPU" || eng.Name() != "sse0" {
		t.Error("accessors wrong")
	}
}

func TestFarrarEngineCancel(t *testing.T) {
	db := tinyDB(t)
	eng, _ := NewFarrarEngine("sse0", score.DefaultProtein(), db, 0)
	q := dataset.Queries(db, 1, 50, 50, 8)[0]
	cancel := make(chan struct{})
	close(cancel)
	if _, err := eng.Search(q, nil, cancel); err != ErrCanceled {
		t.Errorf("err = %v, want ErrCanceled", err)
	}
}

func TestFarrarEngineValidation(t *testing.T) {
	if _, err := NewFarrarEngine("x", score.DefaultProtein(), nil, 0); err == nil {
		t.Error("empty db accepted")
	}
	if _, err := NewFarrarEngine("x", score.Scheme{}, tinyDB(t), 0); err == nil {
		t.Error("bad scheme accepted")
	}
}

// TestGPUEngineScoresMatchFarrar: a GPU engine scores exactly like the
// Farrar engine it scans with, but registers as a GPU with no capability
// list, so it is handed Smith-Waterman tasks only.
func TestGPUEngineScoresMatchFarrar(t *testing.T) {
	db := tinyDB(t)
	sse, _ := NewFarrarEngine("gpu0", score.DefaultProtein(), db, 5e9)
	gpu := NewGPUEngine(sse)
	q := dataset.Queries(db, 1, 90, 90, 9)[0]
	gh, err := gpu.Search(q, nil, make(chan struct{}))
	if err != nil {
		t.Fatal(err)
	}
	sh, _ := sse.Search(q, nil, make(chan struct{}))
	if !reflect.DeepEqual(gh, sh) {
		t.Fatal("GPU engine hits differ from its Farrar engine's")
	}
	if gpu.Kind().String() != "GPU" || gpu.Name() != "gpu0" || gpu.DeclaredSpeed() != 5e9 || gpu.DatabaseResidues() != sse.DatabaseResidues() {
		t.Errorf("GPU engine registers as %s %q declaring %v over %d residues", gpu.Kind(), gpu.Name(), gpu.DeclaredSpeed(), gpu.DatabaseResidues())
	}
	if _, ok := any(gpu).(Filterer); ok {
		t.Error("GPU engine implements Filterer, want SW-only")
	}
}

func TestTopK(t *testing.T) {
	hits := []wire.Hit{
		{SeqID: "a", Index: 0, Score: 5},
		{SeqID: "b", Index: 1, Score: 9},
		{SeqID: "c", Index: 2, Score: 9},
		{SeqID: "d", Index: 3, Score: 1},
	}
	top := TopK(hits, 2)
	if len(top) != 2 || top[0].SeqID != "b" || top[1].SeqID != "c" {
		t.Errorf("TopK = %v", top)
	}
	if got := TopK(hits, 0); len(got) != 4 {
		t.Errorf("TopK(0) = %d hits, want all", len(got))
	}
	if got := TopK(hits, 99); len(got) != 4 {
		t.Errorf("TopK(99) = %d hits", len(got))
	}
	// The input must not be reordered.
	if hits[0].SeqID != "a" {
		t.Error("TopK mutated its input")
	}
}

// TestTopKMatchesFullSort pins the bounded-heap selection to the sorted
// prefix it replaces, over tie-heavy random scores and every k, and checks
// that it allocates only the k entries it returns.
func TestTopKMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(98))
	for iter := 0; iter < 50; iter++ {
		n := 1 + rng.Intn(60)
		hits := make([]wire.Hit, n)
		for i := range hits {
			hits[i] = wire.Hit{Index: 10 + i, Score: rng.Intn(8)}
		}
		rng.Shuffle(n, func(i, j int) { hits[i], hits[j] = hits[j], hits[i] })
		input := append([]wire.Hit(nil), hits...)
		sorted := append([]wire.Hit(nil), hits...)
		wire.SortHits(sorted)
		for k := 0; k <= n+1; k++ {
			got := TopK(hits, k)
			want := sorted
			if k > 0 && k < n {
				want = sorted[:k]
			}
			if len(got) != len(want) {
				t.Fatalf("n=%d k=%d: %d hits, want %d", n, k, len(got), len(want))
			}
			for i := range want {
				if got[i].Index != want[i].Index || got[i].Score != want[i].Score {
					t.Fatalf("n=%d k=%d: hit %d = %+v, want %+v", n, k, i, got[i], want[i])
				}
			}
			for i := range input {
				if hits[i].Index != input[i].Index {
					t.Fatalf("n=%d k=%d: TopK mutated its input", n, k)
				}
			}
		}
	}
	hits := make([]wire.Hit, 1000)
	for i := range hits {
		hits[i] = wire.Hit{Index: i, Score: rng.Intn(100)}
	}
	if allocs := testing.AllocsPerRun(20, func() { TopK(hits, 5) }); allocs != 1 {
		t.Errorf("TopK(1000 hits, 5) made %.0f allocations, want 1", allocs)
	}
}

// searchOnly hides an engine's optional interfaces, leaving the five
// methods of Engine: the shape of an engine that predates range tasks.
type searchOnly struct{ Engine }

// TestSearchRangeMatchesReference cuts the database at every pair of
// bounds a few ranges produce and checks that each engine — Farrar and GPU
// natively, and a Search-only engine through the slave loop's fallback —
// returns exactly the range's sequences, scored like the scalar reference
// and indexed by their position in the whole database, with progress
// reporting the range's cells.
func TestSearchRangeMatchesReference(t *testing.T) {
	db := tinyDB(t)
	s := score.DefaultProtein()
	sse, _ := NewFarrarEngine("sse0", s, db, 0)
	gpu := NewGPUEngine(sse.Replica("gpu0"))
	q := dataset.Queries(db, 1, 70, 70, 21)[0]
	want := make([]int, len(db))
	for i, d := range db {
		want[i] = sw.Score(q.Residues, d.Residues, s)
	}
	for _, eng := range []Engine{sse, gpu, searchOnly{sse}} {
		_, native := eng.(RangeSearcher)
		for _, r := range [][2]int{{0, len(db)}, {0, 1}, {3, 11}, {11, len(db)}, {len(db) - 1, len(db)}} {
			lo, hi := r[0], r[1]
			var reported int64
			hits, err := searchRange(eng, q, lo, hi, 0, func(c int64) { reported = c }, make(chan struct{}))
			if err != nil {
				t.Fatalf("%s [%d,%d): %v", eng.Name(), lo, hi, err)
			}
			if len(hits) != hi-lo {
				t.Fatalf("%s [%d,%d): %d hits, want %d", eng.Name(), lo, hi, len(hits), hi-lo)
			}
			var cells int64
			for i, h := range hits {
				if h.Index != lo+i || h.SeqID != db[lo+i].ID || h.Score != want[lo+i] {
					t.Fatalf("%s [%d,%d) hit %d = %+v, want %s at %d scoring %d", eng.Name(), lo, hi, i, h, db[lo+i].ID, lo+i, want[lo+i])
				}
				cells += int64(q.Len()) * int64(db[lo+i].Len())
			}
			if native && reported != cells {
				t.Errorf("%s [%d,%d): progress ended at %d cells, the range holds %d", eng.Name(), lo, hi, reported, cells)
			}
		}
	}
	// Hi == 0 is the whole database, on any engine.
	if hits, err := searchRange(searchOnly{sse}, q, 0, 0, 0, nil, make(chan struct{})); err != nil || len(hits) != len(db) {
		t.Errorf("whole-database task: %d hits, %v", len(hits), err)
	}
}

// TestSearchRangeCancelAndBounds: a closed cancel channel stops a range
// scan on both engines before it scores anything, and a range outside the
// database or an invalid query is an error, not a panic.
func TestSearchRangeCancelAndBounds(t *testing.T) {
	db := tinyDB(t)
	sse, _ := NewFarrarEngine("sse0", score.DefaultProtein(), db, 0)
	gpu := NewGPUEngine(sse.Replica("gpu0"))
	q := dataset.Queries(db, 1, 40, 40, 22)[0]
	closed := make(chan struct{})
	close(closed)
	for _, eng := range []RangeSearcher{sse, gpu} {
		if _, err := eng.SearchRange(q, 2, 9, 0, nil, closed); err != ErrCanceled {
			t.Errorf("canceled range scan: err = %v, want ErrCanceled", err)
		}
		for _, r := range [][2]int{{-1, 3}, {4, len(db) + 1}, {9, 2}} {
			if _, err := eng.SearchRange(q, r[0], r[1], 0, nil, make(chan struct{})); err == nil {
				t.Errorf("range [%d,%d) over %d sequences accepted", r[0], r[1], len(db))
			}
		}
		if _, err := eng.SearchRange(seq.New("bad", "", []byte("AC1")), 0, 3, 0, nil, make(chan struct{})); err == nil {
			t.Error("invalid query accepted")
		}
	}
}

// TestRangeScansFeedKernelStats: each range scan owns a private kernel
// whose tier counters vanish with it unless the engine observes them, so
// the fallback telemetry must account for every sequence of every range
// exactly once.
func TestRangeScansFeedKernelStats(t *testing.T) {
	db := tinyDB(t)
	kmet := farrar.NewMetrics(metrics.NewRegistry())
	sse, _ := NewFarrarEngine("sse0", score.DefaultProtein(), db, 0)
	sse.SetKernelMetrics(kmet)
	q := dataset.Queries(db, 1, 70, 70, 12)[0]
	for _, r := range [][2]int{{0, 7}, {7, 8}, {8, len(db)}} {
		if _, err := sse.SearchRange(q, r[0], r[1], 0, nil, make(chan struct{})); err != nil {
			t.Fatal(err)
		}
	}
	var total float64
	for _, tier := range []string{farrar.Tier8, farrar.Tier16, farrar.TierScalar} {
		total += kmet.Fallback.With(tier).Value()
	}
	if total != float64(len(db)) {
		t.Errorf("farrar_fallback_total sums to %v over three ranges, want one count per database sequence (%d)", total, len(db))
	}
	cells := kmet.Cells.With(farrar.PathLanes).Value() + kmet.Cells.With(farrar.PathStriped).Value()
	if want := float64(int64(q.Len()) * sse.DatabaseResidues()); cells != want {
		t.Errorf("farrar_cells_total sums to %v over three ranges, want the database's %v cells", cells, want)
	}
}

// TestSearchRangeCancelWithinChunk pins how fast a range task notices a
// cancellation arriving mid-scan, on the lane path (a short query) and
// the striped one (a long query): the engine checks cancel right after
// each progress callback, about every progressChunk cells, so a cancel
// closed inside the first callback ends the task with ErrCanceled and no
// further callback. First-copy-wins replication relies on it.
func TestSearchRangeCancelWithinChunk(t *testing.T) {
	p := dataset.Profile{Name: "big", NumSeqs: 1200, MeanLen: 300, SigmaLn: 0.6, MinLen: 20, MaxLen: 2000}
	db := dataset.Generate(p, 31)
	sse, _ := NewFarrarEngine("sse0", score.DefaultProtein(), db, 0)
	for _, m := range []int{20, 2000} {
		q := dataset.Queries(db, 1, m, m, 32)[0]
		cancel := make(chan struct{})
		var calls int
		var first int64
		_, err := sse.SearchRange(q, 0, len(db), 0, func(c int64) {
			if calls++; calls == 1 {
				first = c
				close(cancel)
			}
		}, cancel)
		if err != ErrCanceled || calls != 1 {
			t.Fatalf("m=%d: err %v after %d progress calls, want ErrCanceled after 1", m, err, calls)
		}
		if all := int64(m) * sse.DatabaseResidues(); first > 2<<22 || first >= all {
			t.Errorf("m=%d: first progress at %d cells of %d, want about one chunk (%d)", m, first, all, 1<<22)
		}
	}
}

// TestReplicasShareBatches: a replica shares its origin's range batches,
// so engines scanning the same ranges at once build one lane layout per
// range between them and score alike.
func TestReplicasShareBatches(t *testing.T) {
	db := tinyDB(t)
	a, _ := NewFarrarEngine("a", score.DefaultProtein(), db, 0)
	b := a.Replica("b")
	if b.Name() != "b" || a.Name() != "a" {
		t.Fatalf("names %q, %q", a.Name(), b.Name())
	}
	q := dataset.Queries(db, 1, 30, 30, 3)[0]
	want, _ := a.SearchRange(q, 0, len(db), 0, nil, make(chan struct{}))
	var wg sync.WaitGroup
	for _, eng := range []*FarrarEngine{a, b, a, b} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, r := range [][2]int{{3, 17}, {0, 3}, {17, len(db)}} {
				hits, err := eng.SearchRange(q, r[0], r[1], 0, nil, make(chan struct{}))
				if err != nil || !reflect.DeepEqual(hits, want[r[0]:r[1]]) {
					t.Errorf("%s [%d,%d): %v, hits differ from the whole scan's", eng.Name(), r[0], r[1], err)
				}
			}
		}()
	}
	wg.Wait()
	if a.batches.get(a, 3, 17) != b.batches.get(b, 3, 17) || len(a.batches.m) != 4 {
		t.Fatalf("replicas hold %d batches, not one shared batch per range", len(a.batches.m))
	}
}

// TestRangeHeapMatchesTopK: the k-entry heap a range task keeps its hits
// in returns exactly TopK of the range's full per-sequence list, for random
// k (below, at and above the range size) and random ranges, on the plain
// and the filtered scan.
func TestRangeHeapMatchesTopK(t *testing.T) {
	db := tinyDB(t)
	sse, _ := NewFarrarEngine("sse0", score.DefaultProtein(), db, 0)
	q := plantedQuery(db, 4)
	rng := rand.New(rand.NewSource(0x70B))
	never := make(chan struct{})
	var cache FilterCache
	defer cache.release()
	for iter := 0; iter < 60; iter++ {
		lo := rng.Intn(len(db))
		hi := lo + 1 + rng.Intn(len(db)-lo)
		k := 1 + rng.Intn(hi-lo+3)
		all, err := sse.SearchRange(q, lo, hi, 0, nil, never)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sse.SearchRange(q, lo, hi, k, nil, never)
		if err != nil {
			t.Fatal(err)
		}
		if want := TopK(all, k); !reflect.DeepEqual(got, want) {
			t.Fatalf("SearchRange [%d,%d) k=%d:\n got %v\nwant %v", lo, hi, k, got, want)
		}
		all, _, err = sse.FilterRange(q, lo, hi, 0, prefilter.Spec{K: 3}, &cache, never)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err = sse.FilterRange(q, lo, hi, k, prefilter.Spec{K: 3}, &cache, never)
		if err != nil {
			t.Fatal(err)
		}
		if want := TopK(all, k); !reflect.DeepEqual(got, want) {
			t.Fatalf("FilterRange [%d,%d) k=%d:\n got %v\nwant %v", lo, hi, k, got, want)
		}
	}
}
