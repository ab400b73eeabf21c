package slave

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/farrar"
	"repro/internal/prefilter"
	"repro/internal/sched"
	"repro/internal/score"
	"repro/internal/seq"
	"repro/internal/sw"
	"repro/internal/wire"
)

// MulticoreEngine is a CPU slave that uses all of a host's cores for one
// task, with the coarse-grained (Fig. 3b) database decomposition: workers
// self-schedule chunks of database sequences through Farrar kernels. This
// models registering a whole multicore host as a single slave instead of
// one slave per core.
type MulticoreEngine struct {
	name     string
	scheme   score.Scheme
	db       []*seq.Sequence
	residues int64
	cores    int
	declared float64
	kmet     *farrar.Metrics
	pmet     *prefilter.Metrics
}

// SetKernelMetrics attaches the farrar fallback-telemetry bundle; the
// per-worker kernel stats that multicoreScan aggregates are observed after
// each task.
func (e *MulticoreEngine) SetKernelMetrics(m *farrar.Metrics) { e.kmet = m }

// NewMulticoreEngine builds a whole-host CPU engine; cores <= 0 uses
// runtime.NumCPU().
func NewMulticoreEngine(name string, s score.Scheme, db []*seq.Sequence, cores int, declaredSpeed float64) (*MulticoreEngine, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if len(db) == 0 {
		return nil, fmt.Errorf("slave: empty database")
	}
	if cores <= 0 {
		cores = runtime.NumCPU()
	}
	e := &MulticoreEngine{name: name, scheme: s, db: db, cores: cores, declared: declaredSpeed}
	for _, d := range db {
		e.residues += int64(d.Len())
	}
	return e, nil
}

// Name implements Engine.
func (e *MulticoreEngine) Name() string { return e.name }

// Kind implements Engine.
func (e *MulticoreEngine) Kind() sched.SlaveKind { return sched.KindCPU }

// DeclaredSpeed implements Engine.
func (e *MulticoreEngine) DeclaredSpeed() float64 { return e.declared }

// DatabaseResidues implements Engine.
func (e *MulticoreEngine) DatabaseResidues() int64 { return e.residues }

// Cores returns the worker count used per task.
func (e *MulticoreEngine) Cores() int { return e.cores }

// Search implements Engine. The parallel chunk scan is not interruptible;
// cancellation is observed at the boundaries like the GPU engine.
func (e *MulticoreEngine) Search(query *seq.Sequence, progress func(int64), cancel <-chan struct{}) ([]wire.Hit, error) {
	select {
	case <-cancel:
		return nil, ErrCanceled
	default:
	}
	scores, kstats, err := multicoreScan(query.Residues, e.db, e.scheme, e.cores)
	if err != nil {
		return nil, err
	}
	e.kmet.Observe(kstats)
	select {
	case <-cancel:
		return nil, ErrCanceled
	default:
	}
	if progress != nil {
		progress(int64(query.Len()) * e.residues)
	}
	hits := make([]wire.Hit, len(e.db))
	for i, d := range e.db {
		hits[i] = wire.Hit{SeqID: d.ID, Index: i, Score: scores[i]}
	}
	return hits, nil
}

// AlignHit implements Aligner for the multicore engine.
func (e *MulticoreEngine) AlignHit(query *seq.Sequence, hitIndex int) (*sw.Alignment, error) {
	if hitIndex < 0 || hitIndex >= len(e.db) {
		return nil, fmt.Errorf("slave: hit index %d out of range", hitIndex)
	}
	return sw.AlignLinearSpace(query.Residues, e.db[hitIndex].Residues, e.scheme), nil
}

// multicoreScan scores q against db with the coarse-grained (Fig. 3b)
// decomposition: workers goroutines, each owning a private Farrar kernel,
// claim chunks of database sequences by self-scheduling. Scores return in
// database order, together with the kernel dispatch stats summed over the
// workers: each worker's counters would otherwise vanish with it, and the
// sum is what feeds the farrar_fallback_total counters.
func multicoreScan(q []byte, db []*seq.Sequence, s score.Scheme, workers int) ([]int, farrar.Stats, error) {
	const chunk = 16 // database sequences a worker claims at a time
	kerns := make([]*farrar.Kernel, workers)
	for w := range kerns {
		kern, err := farrar.NewKernel(q, s)
		if err != nil {
			return nil, farrar.Stats{}, err
		}
		kerns[w] = kern
	}
	scores := make([]int, len(db))
	type span struct{ lo, hi int }
	spans := make(chan span)
	var wg sync.WaitGroup
	for _, kern := range kerns {
		wg.Add(1)
		go func(kern *farrar.Kernel) {
			defer wg.Done()
			for sp := range spans {
				for i := sp.lo; i < sp.hi; i++ {
					scores[i] = kern.Score(db[i].Residues)
				}
			}
		}(kern)
	}
	for lo := 0; lo < len(db); lo += chunk {
		spans <- span{lo, min(lo+chunk, len(db))}
	}
	close(spans)
	wg.Wait()
	var agg farrar.Stats
	for _, kern := range kerns {
		agg = agg.Add(kern.Stats())
	}
	return scores, agg, nil
}
