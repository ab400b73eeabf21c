package slave

import (
	"fmt"

	"repro/internal/farrar"
	"repro/internal/prefilter"
	"repro/internal/sched"
	"repro/internal/score"
	"repro/internal/seq"
	"repro/internal/wire"
)

// Prefilterer is the optional engine interface for the first stage of a
// filtered search: compile the query's k-mer seeds and scan the resident
// database for candidate windows. Like the GPU kernel launch, the scan is
// not interruptible; cancellation is observed at the call boundaries (the
// pass costs ~1/PrefilterEquivCells of a full scan, so the exposure is
// small).
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

// prefilterPass is the shared Prefilterer body of the CPU engines.
func prefilterPass(db []*seq.Sequence, query *seq.Sequence, spec prefilter.Spec, cancel <-chan struct{}, pmet *prefilter.Metrics) (prefilter.Result, error) {
	select {
	case <-cancel:
		return prefilter.Result{}, ErrCanceled
	default:
	}
	res, err := prefilter.Run(query.Residues, db, spec)
	if err != nil {
		return prefilter.Result{}, err
	}
	select {
	case <-cancel:
		return prefilter.Result{}, ErrCanceled
	default:
	}
	pmet.Observe(res.Stats)
	return res, nil
}

// rescorePass is the shared WindowRescorer body of the CPU engines.
func rescorePass(db []*seq.Sequence, scheme score.Scheme, query *seq.Sequence, windows []sched.Window, cancel <-chan struct{}, kmet *farrar.Metrics) ([]wire.Hit, error) {
	select {
	case <-cancel:
		return nil, ErrCanceled
	default:
	}
	r, err := prefilter.NewRescorer(query.Residues, scheme)
	if err != nil {
		return nil, err
	}
	scores, _, err := r.Rescore(db, windows)
	if err != nil {
		return nil, err
	}
	select {
	case <-cancel:
		return nil, ErrCanceled
	default:
	}
	kmet.Observe(r.Stats())
	hits := make([]wire.Hit, len(db))
	for i, d := range db {
		hits[i] = wire.Hit{SeqID: d.ID, Index: i, Score: scores[i]}
	}
	return hits, nil
}

// SetPrefilterMetrics attaches the prefilter instrumentation bundle; each
// Prefilter pass observes its Stats on completion.
func (e *FarrarEngine) SetPrefilterMetrics(m *prefilter.Metrics) { e.pmet = m }

// Prefilter implements Prefilterer.
func (e *FarrarEngine) Prefilter(query *seq.Sequence, spec prefilter.Spec, cancel <-chan struct{}) (prefilter.Result, error) {
	return prefilterPass(e.db, query, spec, cancel, e.pmet)
}

// RescoreWindows implements WindowRescorer.
func (e *FarrarEngine) RescoreWindows(query *seq.Sequence, windows []sched.Window, cancel <-chan struct{}) ([]wire.Hit, error) {
	return rescorePass(e.db, e.scheme, query, windows, cancel, e.kmet)
}

// SetPrefilterMetrics attaches the prefilter instrumentation bundle.
func (e *MulticoreEngine) SetPrefilterMetrics(m *prefilter.Metrics) { e.pmet = m }

// Prefilter implements Prefilterer.
func (e *MulticoreEngine) Prefilter(query *seq.Sequence, spec prefilter.Spec, cancel <-chan struct{}) (prefilter.Result, error) {
	return prefilterPass(e.db, query, spec, cancel, e.pmet)
}

// RescoreWindows implements WindowRescorer.
func (e *MulticoreEngine) RescoreWindows(query *seq.Sequence, windows []sched.Window, cancel <-chan struct{}) ([]wire.Hit, error) {
	return rescorePass(e.db, e.scheme, query, windows, cancel, e.kmet)
}

// runStage executes the kind-specific body of one task and returns the
// completion payload: hits for SW and rescore tasks, windows plus
// selectivity accounting for prefilter tasks.
func runStage(eng Engine, spec wire.TaskSpec, query *seq.Sequence, progress func(int64), cancel <-chan struct{}) (hits []wire.Hit, windows []sched.Window, scanned, candidates int64, err error) {
	switch spec.TaskKind {
	case sched.TaskSW:
		hits, err = eng.Search(query, progress, cancel)
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
