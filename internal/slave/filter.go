package slave

import (
	"fmt"
	"sync"

	"repro/internal/prefilter"
	"repro/internal/sched"
	"repro/internal/seq"
	"repro/internal/wire"
)

// Filterer is the optional engine interface for filtered search: prefilter
// the range [lo, hi) of the resident database with the query's k-mer seeds,
// then rescore the candidate windows with full Smith-Waterman. Like
// SearchRange it returns the range's k best hits, ranked (for k <= 0 every
// sequence of the range in database order, score 0 where the prefilter
// admitted nothing), so
// results rank exactly like a full scan's, with Index the position in the
// whole resident database. The zero range (hi == 0) is the whole database,
// as in a TaskSpec. Candidate windows never cross a sequence, so the ranges
// of a cut need nothing from one another. cache holds what the calls of one
// slave session share.
type Filterer interface {
	FilterRange(query *seq.Sequence, lo, hi, k int, spec prefilter.Spec, cache *FilterCache, cancel <-chan struct{}) ([]wire.Hit, FilterCounts, error)
}

// FilterCache is the compiled prefilter and window rescorer of the last
// query a slave session filtered. Range tasks are query-major, so a session
// meets a query's ranges in a row, and compiling costs several times more
// than scanning one range. The Rescorer has scratch state and belongs to
// the session; the Filter is read-only and comes from a process-wide table
// (sharedFilters), so the engines scanning one query's ranges at once
// compile it once between them. The zero value is empty; a cache is not
// safe for concurrent use, and its owner calls release when done with it.
type FilterCache struct {
	key      filterKey
	filter   *prefilter.Filter
	rescorer *prefilter.Rescorer
}

// release drops the cache's hold on its shared Filter.
func (c *FilterCache) release() {
	if c.filter != nil {
		sharedFilters.release(c.key)
	}
	*c = FilterCache{}
}

// filterKey identifies a compiled Filter: the query residues and the
// normalized spec.
type filterKey struct {
	query string
	spec  prefilter.Spec
}

// sharedFilters holds each Filter while some session's cache uses it, so
// nothing outlives the searches that compiled it.
var sharedFilters = filterTable{m: map[filterKey]*heldFilter{}}

type filterTable struct {
	mu sync.Mutex
	m  map[filterKey]*heldFilter
}

type heldFilter struct {
	f       *prefilter.Filter
	holders int
}

// acquire returns key's Filter, compiling it if no session holds it;
// compiled reports whether this call did. Compiling under the lock makes
// the sessions that ask for a query at once wait for one compile.
func (t *filterTable) acquire(key filterKey) (f *prefilter.Filter, compiled bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if h := t.m[key]; h != nil {
		h.holders++
		return h.f, false, nil
	}
	f, err = prefilter.NewFilter([]byte(key.query), key.spec)
	if err != nil {
		return nil, false, err
	}
	t.m[key] = &heldFilter{f: f, holders: 1}
	return f, true, nil
}

func (t *filterTable) release(key filterKey) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if h := t.m[key]; h != nil {
		if h.holders--; h.holders == 0 {
			delete(t.m, key)
		}
	}
}

// FilterCounts is one filtered range's accounting, shipped in its
// CompleteMsg.
type FilterCounts struct {
	Scanned    int64 // database residues streamed through the automaton
	Candidates int64 // residues admitted for rescoring
	Windows    int   // merged candidate windows
	Rescored   int64 // DP cells the window rescore computed
}

// EngineCaps derives the capability list a slave registers with from the
// optional interfaces its engine implements. SW-only engines return nil —
// the historical registration shape — so their wire traffic is unchanged.
func EngineCaps(eng Engine) []sched.TaskKind {
	if _, ok := eng.(Filterer); ok {
		return []sched.TaskKind{sched.TaskSW, sched.TaskFiltered}
	}
	return nil
}

// SetPrefilterMetrics attaches the prefilter instrumentation bundle; each
// filtered range observes its scan's Stats on completion.
func (e *FarrarEngine) SetPrefilterMetrics(m *prefilter.Metrics) { e.pmet = m }

// FilterRange implements Filterer. The scan is not interruptible;
// cancellation is observed between the two passes.
func (e *FarrarEngine) FilterRange(query *seq.Sequence, lo, hi, k int, spec prefilter.Spec, cache *FilterCache, cancel <-chan struct{}) ([]wire.Hit, FilterCounts, error) {
	if hi == 0 {
		hi = len(e.db)
	}
	if lo < 0 || hi > len(e.db) || lo > hi {
		return nil, FilterCounts{}, fmt.Errorf("slave: range [%d,%d) outside the %d-sequence database", lo, hi, len(e.db))
	}
	key := filterKey{spec: spec.Normalize()}
	compiled := false
	if cache.filter == nil || cache.key.spec != key.spec || cache.key.query != string(query.Residues) {
		key.query = string(query.Residues)
		cache.release()
		r, err := prefilter.NewRescorer(query.Residues, e.scheme)
		if err != nil {
			return nil, FilterCounts{}, err
		}
		var f *prefilter.Filter
		if f, compiled, err = sharedFilters.acquire(key); err != nil {
			return nil, FilterCounts{}, err
		}
		*cache = FilterCache{key: key, filter: f, rescorer: r}
	}
	db := e.db[lo:hi]
	res := cache.filter.Scan(db)
	select {
	case <-cancel:
		return nil, FilterCounts{}, ErrCanceled
	default:
	}
	before := cache.rescorer.Stats()
	scores, cells, err := cache.rescorer.Rescore(db, res.Windows)
	if err != nil {
		return nil, FilterCounts{}, err
	}
	e.kmet.Observe(cache.rescorer.Stats().Sub(before))
	if !compiled {
		// prefilter_patterns_compiled_total counts compilations.
		res.Stats.Patterns = 0
	}
	e.pmet.Observe(res.Stats)
	top := newTopHits(k, len(db))
	for i, d := range db {
		top.add(wire.Hit{SeqID: d.ID, Index: lo + i, Score: scores[i]})
	}
	return top.result(), FilterCounts{
		Scanned:    res.Stats.ResiduesScanned,
		Candidates: res.Stats.CandidateResidues,
		Windows:    res.Stats.Windows,
		Rescored:   cells,
	}, nil
}

// runStage executes the kind-specific body of one task and returns its
// hits (at least its k best), plus the range's accounting for a filtered
// task.
func runStage(eng Engine, spec wire.TaskSpec, query *seq.Sequence, k int, filters *FilterCache, progress func(int64), cancel <-chan struct{}) ([]wire.Hit, FilterCounts, error) {
	switch spec.TaskKind {
	case sched.TaskSW:
		hits, err := searchRange(eng, query, spec.Lo, spec.Hi, k, progress, cancel)
		return hits, FilterCounts{}, err
	case sched.TaskFiltered:
		f, ok := eng.(Filterer)
		if !ok {
			return nil, FilterCounts{}, fmt.Errorf("slave: engine %q cannot execute %s tasks", eng.Name(), spec.TaskKind)
		}
		var fspec prefilter.Spec
		if spec.Filter != nil {
			fspec = *spec.Filter
		}
		hits, counts, err := f.FilterRange(query, spec.Lo, spec.Hi, k, fspec, filters, cancel)
		// The range is done: report the task's full cell-equivalent budget
		// so the master's speed estimate sees the work.
		if err == nil && progress != nil {
			progress(spec.Cells)
		}
		return hits, counts, err
	default:
		return nil, FilterCounts{}, fmt.Errorf("slave: unknown task kind %v", spec.TaskKind)
	}
}

// searchRange runs one TaskSW task: the whole database when hi is 0 (the
// paper's task, and every task of a master that cuts no ranges), else the
// range [lo, hi) — natively on a RangeSearcher, which keeps its k best,
// and on any other engine by scanning everything and keeping the hits
// inside the range, which is slower but ranks the same.
func searchRange(eng Engine, query *seq.Sequence, lo, hi, k int, progress func(int64), cancel <-chan struct{}) ([]wire.Hit, error) {
	if hi == 0 {
		return eng.Search(query, progress, cancel)
	}
	if rs, ok := eng.(RangeSearcher); ok {
		return rs.SearchRange(query, lo, hi, k, progress, cancel)
	}
	all, err := eng.Search(query, progress, cancel)
	if err != nil {
		return nil, err
	}
	hits := all[:0]
	for _, h := range all {
		if lo <= h.Index && h.Index < hi {
			hits = append(hits, h)
		}
	}
	return hits, nil
}
