package slave

import (
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/prefilter"
	"repro/internal/sched"
	"repro/internal/score"
	"repro/internal/seq"
	"repro/internal/sw"
	"repro/internal/wire"
)

// plantedQuery is a substring of a database member, so the prefilter has
// seeds to find.
func plantedQuery(db []*seq.Sequence, i int) *seq.Sequence {
	return seq.New("q", "", db[i].Residues[:min(40, db[i].Len())])
}

// TestFilterRangeSharesCompiledFilter: the range tasks of one query in
// one session share one compiled Filter and one Rescorer, and a second
// session (another engine) filtering the query at the same time shares the
// Filter too; a new query or spec compiles afresh, the patterns metric
// counts compilations only, and nothing stays held once the sessions end.
func TestFilterRangeSharesCompiledFilter(t *testing.T) {
	db := tinyDB(t)
	eng, err := NewFarrarEngine("sse0", score.DefaultProtein(), db, 0)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	pm := prefilter.NewMetrics(reg)
	eng.SetPrefilterMetrics(pm)
	q := plantedQuery(db, 3)
	never := make(chan struct{})
	var cache, other FilterCache

	if _, _, err := eng.FilterRange(q, 0, 10, 0, prefilter.Spec{}, &cache, never); err != nil {
		t.Fatal(err)
	}
	first := cache
	if first.filter == nil || first.rescorer == nil {
		t.Fatal("nothing cached after a filtered range")
	}
	// Same query in a fresh slice (as it arrives over the wire), same
	// spec after normalization.
	again := seq.New("q", "", append([]byte(nil), q.Residues...))
	if _, _, err := eng.FilterRange(again, 10, 20, 0, prefilter.Spec{K: prefilter.DefaultK}, &cache, never); err != nil {
		t.Fatal(err)
	}
	if cache.filter != first.filter || cache.rescorer != first.rescorer {
		t.Fatal("second range of the query did not reuse the compiled filter and rescorer")
	}
	eng2, err := NewFarrarEngine("sse1", score.DefaultProtein(), db, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng2.SetPrefilterMetrics(pm)
	if _, _, err := eng2.FilterRange(again, 20, 25, 0, prefilter.Spec{}, &other, never); err != nil {
		t.Fatal(err)
	}
	if other.filter != first.filter || other.rescorer == first.rescorer {
		t.Fatal("a concurrent session must share the Filter and own its rescorer")
	}
	whole, err := prefilter.Run(q.Residues, db, prefilter.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if got := pm.PatternsCompiled.Value(); got != float64(whole.Stats.Patterns) {
		t.Errorf("patterns compiled = %v, want one compilation's %d", got, whole.Stats.Patterns)
	}

	if _, _, err := eng.FilterRange(q, 0, 10, 0, prefilter.Spec{K: 3}, &cache, never); err != nil {
		t.Fatal(err)
	}
	if cache.filter == first.filter {
		t.Fatal("a different spec reused the cached filter")
	}
	k3 := cache.filter
	if _, _, err := eng.FilterRange(plantedQuery(db, 7), 0, 10, 0, prefilter.Spec{K: 3}, &cache, never); err != nil {
		t.Fatal(err)
	}
	if cache.filter == k3 {
		t.Fatal("a different query reused the cached filter")
	}
	cache.release()
	other.release()
	if n := len(sharedFilters.m); n != 0 {
		t.Fatalf("%d filters still held after every session released", n)
	}
}

// TestFilteredRangeTaskKeepsTopKInsideRange runs one filtered range task
// through the loop of a slave that registered as a GPU: the completion
// carries at most k hits, all inside the task's range and none above the
// full scan's score, plus the range's accounting.
func TestFilteredRangeTaskKeepsTopKInsideRange(t *testing.T) {
	db := tinyDB(t)
	scheme := score.DefaultProtein()
	cpu, err := NewFarrarEngine("sse0", scheme, db, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng := cpu.Replica("gpu0", sched.KindGPU)
	const lo, hi, k = 5, 17, 3
	q := plantedQuery(db, 9)
	spec := wire.TaskSpec{
		ID: 0, QueryID: q.ID, Residues: q.Residues, Cells: 1000,
		Lo: lo, Hi: hi, TaskKind: sched.TaskFiltered, Filter: &prefilter.Spec{},
	}
	var got *wire.CompleteMsg
	var kind sched.SlaveKind
	m := &scriptedMaster{tasks: []wire.TaskSpec{spec}, doneAfter: 1}
	caller := callerFunc(func(req wire.Envelope) (wire.Envelope, error) {
		if req.Register != nil {
			kind = req.Register.Kind
		}
		if req.Complete != nil {
			got = req.Complete
		}
		return m.Call(req)
	})
	if _, err := Run(caller, eng, Options{NotifyEvery: time.Microsecond, TopK: k}); err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("no completion")
	}
	if len(got.Hits) == 0 || len(got.Hits) > k {
		t.Fatalf("%d hits, want 1..%d", len(got.Hits), k)
	}
	for _, h := range got.Hits {
		if h.Index < lo || h.Index >= hi {
			t.Errorf("hit %+v outside [%d,%d)", h, lo, hi)
		}
		if full := sw.Score(q.Residues, db[h.Index].Residues, scheme); h.Score > full {
			t.Errorf("hit %+v scores above the full scan's %d", h, full)
		}
	}
	if got.Hits[0].Index != 9 {
		t.Errorf("top hit %+v, want the query's source 9", got.Hits[0])
	}
	if kind != sched.KindGPU {
		t.Errorf("the slave registered as %s, want GPU", kind)
	}
	if f := got.Filter; f.ResiduesScanned == 0 || f.CandidateResidues == 0 || f.Windows == 0 || f.RescoredCells == 0 || f.FullScanCells != 0 {
		t.Errorf("range accounting: %+v", f)
	}
}

// TestUnknownTaskKindFails: a task kind the slave does not know — such as
// the prefilter stage (kind 1) of an older master — fails the loop loudly
// instead of completing with empty hits.
func TestUnknownTaskKindFails(t *testing.T) {
	eng, specs := testEngine(t)
	spec := specs[0]
	spec.TaskKind = 1
	m := &scriptedMaster{tasks: []wire.TaskSpec{spec}, doneAfter: 1}
	_, err := Run(m, eng, Options{NotifyEvery: time.Microsecond})
	if err == nil || !strings.Contains(err.Error(), "unknown task kind") {
		t.Fatalf("err = %v, want unknown task kind", err)
	}
	if len(m.completed) != 0 {
		t.Fatalf("completed %v", m.completed)
	}
}
