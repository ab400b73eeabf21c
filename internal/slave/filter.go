package slave

import (
	"fmt"

	"repro/internal/prefilter"
	"repro/internal/sched"
	"repro/internal/seq"
	"repro/internal/wire"
)

// Prefilterer is the optional engine interface for the first stage of a
// filtered search: compile the query's k-mer seeds and scan the resident
// database for candidate windows. The scan is not interruptible;
// cancellation is observed at the call boundaries (the pass costs
// ~1/PrefilterEquivCells of a full scan, so the exposure is small).
type Prefilterer interface {
	Prefilter(query *seq.Sequence, spec prefilter.Spec, cancel <-chan struct{}) (prefilter.Result, error)
}

// WindowRescorer is the optional engine interface for the second stage:
// full Smith-Waterman restricted to candidate windows, returning one hit
// per database sequence (score 0 where the prefilter admitted nothing) so
// results rank exactly like a full scan's.
type WindowRescorer interface {
	RescoreWindows(query *seq.Sequence, windows []sched.Window, cancel <-chan struct{}) ([]wire.Hit, error)
}

// EngineCaps derives the capability list a slave registers with from the
// optional interfaces its engine implements. SW-only engines return nil —
// the historical registration shape — so their wire traffic is unchanged.
func EngineCaps(eng Engine) []sched.TaskKind {
	caps := []sched.TaskKind{sched.TaskSW}
	if _, ok := eng.(Prefilterer); ok {
		caps = append(caps, sched.TaskPrefilter)
	}
	if _, ok := eng.(WindowRescorer); ok {
		caps = append(caps, sched.TaskRescore)
	}
	if len(caps) == 1 {
		return nil
	}
	return caps
}

// SetPrefilterMetrics attaches the prefilter instrumentation bundle; each
// Prefilter pass observes its Stats on completion.
func (e *FarrarEngine) SetPrefilterMetrics(m *prefilter.Metrics) { e.pmet = m }

// Prefilter implements Prefilterer.
func (e *FarrarEngine) Prefilter(query *seq.Sequence, spec prefilter.Spec, cancel <-chan struct{}) (prefilter.Result, error) {
	select {
	case <-cancel:
		return prefilter.Result{}, ErrCanceled
	default:
	}
	res, err := prefilter.Run(query.Residues, e.db, spec)
	if err != nil {
		return prefilter.Result{}, err
	}
	select {
	case <-cancel:
		return prefilter.Result{}, ErrCanceled
	default:
	}
	e.pmet.Observe(res.Stats)
	return res, nil
}

// RescoreWindows implements WindowRescorer.
func (e *FarrarEngine) RescoreWindows(query *seq.Sequence, windows []sched.Window, cancel <-chan struct{}) ([]wire.Hit, error) {
	select {
	case <-cancel:
		return nil, ErrCanceled
	default:
	}
	r, err := prefilter.NewRescorer(query.Residues, e.scheme)
	if err != nil {
		return nil, err
	}
	scores, _, err := r.Rescore(e.db, windows)
	if err != nil {
		return nil, err
	}
	select {
	case <-cancel:
		return nil, ErrCanceled
	default:
	}
	e.kmet.Observe(r.Stats())
	hits := make([]wire.Hit, len(e.db))
	for i, d := range e.db {
		hits[i] = wire.Hit{SeqID: d.ID, Index: i, Score: scores[i]}
	}
	return hits, nil
}

// runStage executes the kind-specific body of one task and returns the
// completion payload: hits for SW and rescore tasks, windows plus
// selectivity accounting for prefilter tasks.
func runStage(eng Engine, spec wire.TaskSpec, query *seq.Sequence, progress func(int64), cancel <-chan struct{}) (hits []wire.Hit, windows []sched.Window, scanned, candidates int64, err error) {
	switch spec.TaskKind {
	case sched.TaskSW:
		hits, err = searchRange(eng, query, spec.Lo, spec.Hi, progress, cancel)
		return hits, nil, 0, 0, err
	case sched.TaskPrefilter:
		pf, ok := eng.(Prefilterer)
		if !ok {
			return nil, nil, 0, 0, fmt.Errorf("slave: engine %q cannot execute %s tasks", eng.Name(), spec.TaskKind)
		}
		var fspec prefilter.Spec
		if spec.Filter != nil {
			fspec = *spec.Filter
		}
		res, err := pf.Prefilter(query, fspec, cancel)
		if err != nil {
			return nil, nil, 0, 0, err
		}
		// The pass is done: report the task's full cell-equivalent budget
		// so the master's speed estimate sees the work.
		if progress != nil {
			progress(spec.Cells)
		}
		return nil, res.Windows, res.Stats.ResiduesScanned, res.Stats.CandidateResidues, nil
	case sched.TaskRescore:
		rs, ok := eng.(WindowRescorer)
		if !ok {
			return nil, nil, 0, 0, fmt.Errorf("slave: engine %q cannot execute %s tasks", eng.Name(), spec.TaskKind)
		}
		hits, err = rs.RescoreWindows(query, spec.Windows, cancel)
		if err == nil && progress != nil {
			progress(spec.Cells)
		}
		return hits, nil, 0, 0, err
	default:
		return nil, nil, 0, 0, fmt.Errorf("slave: unknown task kind %v", spec.TaskKind)
	}
}

// searchRange runs one TaskSW task: the whole database when hi is 0 (the
// paper's task, and every task of a master that cuts no ranges), else the
// range [lo, hi) — natively on a RangeSearcher, and on any other engine by
// scanning everything and keeping the hits inside the range, which is
// slower but ranks the same.
func searchRange(eng Engine, query *seq.Sequence, lo, hi int, progress func(int64), cancel <-chan struct{}) ([]wire.Hit, error) {
	if hi == 0 {
		return eng.Search(query, progress, cancel)
	}
	if rs, ok := eng.(RangeSearcher); ok {
		return rs.SearchRange(query, lo, hi, progress, cancel)
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
