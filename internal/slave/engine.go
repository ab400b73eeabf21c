// Package slave implements the slave side of the task execution
// environment: the request/execute/notify loop of Fig. 4 plus the two
// execution engines the paper integrates — the adapted Farrar striped
// kernel for SSE cores (§IV-C) and the encapsulated CUDASW++-style engine
// for GPUs. A task is one query against one contiguous range of the
// engine's resident database (RangeSearcher) — the whole of it when the
// master cuts no ranges, the paper's grain. FarrarEngine.SearchRange is the
// tree's one CPU scan loop; several cores serve one query by running one
// engine each on different ranges, not by threading an engine.
package slave

import (
	"fmt"

	"repro/internal/cudasw"
	"repro/internal/farrar"
	"repro/internal/prefilter"
	"repro/internal/sched"
	"repro/internal/score"
	"repro/internal/seq"
	"repro/internal/sw"
	"repro/internal/wire"
)

// ErrCanceled is returned by engines when the master canceled the task
// mid-execution (its replica finished first elsewhere).
var ErrCanceled = fmt.Errorf("slave: task canceled")

// Engine executes tasks: comparisons of a query against the engine's
// resident database, or — through the optional RangeSearcher — a range of it.
type Engine interface {
	// Name and Kind identify the engine at registration.
	Name() string
	Kind() sched.SlaveKind
	// DeclaredSpeed is the theoretical cells/second announced to the
	// master (used by the WFixed baseline); 0 means undeclared.
	DeclaredSpeed() float64
	// DatabaseResidues sizes tasks: cells = |query| * DatabaseResidues.
	DatabaseResidues() int64
	// Search scores query against the database, calling progress with the
	// cumulative cell count at reasonable intervals. It returns
	// ErrCanceled promptly after cancel is closed.
	Search(query *seq.Sequence, progress func(cellsDone int64), cancel <-chan struct{}) ([]wire.Hit, error)
}

// FarrarEngine is the SSE-core engine: one CPU core running the adapted
// Farrar striped Smith-Waterman (AVX2 or SSE2 assembly on amd64, SWAR
// elsewhere).
type FarrarEngine struct {
	name     string
	scheme   score.Scheme
	db       []*seq.Sequence
	residues int64
	declared float64
	kmet     *farrar.Metrics
	pmet     *prefilter.Metrics
}

// SetKernelMetrics attaches the farrar fallback-telemetry bundle; each
// Search observes its kernel's aggregated tier stats on completion.
func (e *FarrarEngine) SetKernelMetrics(m *farrar.Metrics) { e.kmet = m }

// NewFarrarEngine builds an SSE-core engine over a resident database.
func NewFarrarEngine(name string, s score.Scheme, db []*seq.Sequence, declaredSpeed float64) (*FarrarEngine, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if len(db) == 0 {
		return nil, fmt.Errorf("slave: empty database")
	}
	e := &FarrarEngine{
		name: name, scheme: s, db: db, declared: declaredSpeed,
		kmet: farrar.NewMetrics(nil), pmet: prefilter.NewMetrics(nil),
	}
	for _, d := range db {
		e.residues += int64(d.Len())
	}
	return e, nil
}

// Name implements Engine.
func (e *FarrarEngine) Name() string { return e.name }

// Kind implements Engine.
func (e *FarrarEngine) Kind() sched.SlaveKind { return sched.KindCPU }

// DeclaredSpeed implements Engine.
func (e *FarrarEngine) DeclaredSpeed() float64 { return e.declared }

// DatabaseResidues implements Engine.
func (e *FarrarEngine) DatabaseResidues() int64 { return e.residues }

// RangeSearcher is the optional engine interface for database-range tasks:
// Search restricted to the half-open sequence-index range [lo, hi) of the
// resident database, keeping only the range's k best hits. It returns them
// ranked by wire.HitLess (for k <= 0 every hit of the range, in database
// order), with Index still the position in the whole resident database,
// and reports progress in cells of the range. The slave loop falls back to
// Search and drops the hits outside the range for an engine that lacks it.
type RangeSearcher interface {
	SearchRange(query *seq.Sequence, lo, hi, k int, progress func(cellsDone int64), cancel <-chan struct{}) ([]wire.Hit, error)
}

// Search implements Engine: the whole database as one range.
func (e *FarrarEngine) Search(query *seq.Sequence, progress func(int64), cancel <-chan struct{}) ([]wire.Hit, error) {
	return e.SearchRange(query, 0, len(e.db), 0, progress, cancel)
}

// SearchRange implements RangeSearcher: the range is scanned sequentially
// (§IV-B: database files are processed sequentially on the PEs), one
// striped-kernel score per database sequence, into a k-entry heap.
func (e *FarrarEngine) SearchRange(query *seq.Sequence, lo, hi, k int, progress func(int64), cancel <-chan struct{}) ([]wire.Hit, error) {
	if lo < 0 || hi > len(e.db) || lo > hi {
		return nil, fmt.Errorf("slave: range [%d,%d) outside the %d-sequence database", lo, hi, len(e.db))
	}
	kern, err := farrar.NewKernel(query.Residues, e.scheme)
	if err != nil {
		return nil, err
	}
	top := newTopHits(k, hi-lo)
	var cells int64
	var sinceProgress int64
	const progressChunk = 1 << 22 // ~4M cells between progress callbacks
	for i, d := range e.db[lo:hi] {
		select {
		case <-cancel:
			return nil, ErrCanceled
		default:
		}
		top.add(wire.Hit{SeqID: d.ID, Index: lo + i, Score: kern.Score(d.Residues)})
		n := kern.Cells(d.Residues)
		cells += n
		sinceProgress += n
		if sinceProgress >= progressChunk && progress != nil {
			progress(cells)
			sinceProgress = 0
		}
	}
	if progress != nil {
		progress(cells)
	}
	e.kmet.Observe(kern.Stats())
	return top.result(), nil
}

// GPUEngine wraps the simulated CUDASW++ engine (§IV-C: "CUDASW was
// encapsulated and easily integrated to our tool").
type GPUEngine struct {
	name     string
	engine   *cudasw.Engine
	declared float64
	kmet     *farrar.Metrics
}

// SetKernelMetrics attaches the farrar fallback-telemetry bundle for the
// engine's real compute core.
func (e *GPUEngine) SetKernelMetrics(m *farrar.Metrics) { e.kmet = m }

// NewGPUEngine builds a GPU engine over a resident database.
func NewGPUEngine(name string, dev cudasw.Device, s score.Scheme, db []*seq.Sequence, declaredSpeed float64) (*GPUEngine, error) {
	eng, err := cudasw.NewEngine(dev, s, db)
	if err != nil {
		return nil, err
	}
	return &GPUEngine{name: name, engine: eng, declared: declaredSpeed, kmet: farrar.NewMetrics(nil)}, nil
}

// Name implements Engine.
func (e *GPUEngine) Name() string { return e.name }

// Kind implements Engine.
func (e *GPUEngine) Kind() sched.SlaveKind { return sched.KindGPU }

// DeclaredSpeed implements Engine.
func (e *GPUEngine) DeclaredSpeed() float64 { return e.declared }

// DatabaseResidues implements Engine.
func (e *GPUEngine) DatabaseResidues() int64 { return e.engine.DatabaseResidues() }

// Search implements Engine: the whole database as one range.
func (e *GPUEngine) Search(query *seq.Sequence, progress func(int64), cancel <-chan struct{}) ([]wire.Hit, error) {
	return e.SearchRange(query, 0, e.engine.DatabaseSeqs(), 0, progress, cancel)
}

// SearchRange implements RangeSearcher. The simulated device has nothing
// to report mid-launch, so progress is called once, with the range's cells.
func (e *GPUEngine) SearchRange(query *seq.Sequence, lo, hi, k int, progress func(int64), cancel <-chan struct{}) ([]wire.Hit, error) {
	hits, rep, err := e.engine.SearchRange(query.Residues, lo, hi, true, cancel)
	if err == cudasw.ErrCanceled {
		return nil, ErrCanceled
	}
	if err != nil {
		return nil, err
	}
	if progress != nil {
		progress(rep.Cells)
	}
	e.kmet.Observe(rep.Kernel)
	top := newTopHits(k, len(hits))
	for _, h := range hits {
		top.add(wire.Hit{SeqID: h.ID, Index: h.Index, Score: h.Score})
	}
	return top.result(), nil
}

// TopK returns the k best hits under the module-wide ranking contract
// (wire.HitLess: score descending, database order on ties), the form
// results travel back to the master in. The input is not modified. One
// scan's hits have distinct indices, so HitLess is a strict order on them
// and the k best are unique.
func TopK(hits []wire.Hit, k int) []wire.Hit {
	top := newTopHits(k, len(hits))
	for _, h := range hits {
		top.add(h)
	}
	out := top.result()
	if k <= 0 {
		wire.SortHits(out)
	}
	return out
}

// topHits keeps the k best of the hits added to it (all of them for
// k <= 0) in at most k entries: once full, a bounded heap holds the k best
// seen so far with the worst at its root, and result heap-sorts it in
// place.
type topHits struct {
	k    int
	hits []wire.Hit
}

// newTopHits sizes the collector for at most n additions.
func newTopHits(k, n int) topHits {
	if k > 0 && k < n {
		n = k
	}
	return topHits{k: k, hits: make([]wire.Hit, 0, n)}
}

func (t *topHits) add(h wire.Hit) {
	if t.k <= 0 || len(t.hits) < t.k {
		t.hits = append(t.hits, h)
		if len(t.hits) == t.k {
			for i := t.k/2 - 1; i >= 0; i-- {
				siftWorst(t.hits, i)
			}
		}
		return
	}
	if wire.HitLess(h, t.hits[0]) {
		t.hits[0] = h
		siftWorst(t.hits, 0)
	}
}

// result returns the kept hits: for k > 0 the k best, best first; for
// k <= 0 every hit, in the order added.
func (t *topHits) result() []wire.Hit {
	if t.k <= 0 {
		return t.hits
	}
	if len(t.hits) < t.k {
		wire.SortHits(t.hits)
		return t.hits
	}
	for end := len(t.hits) - 1; end > 0; end-- {
		t.hits[0], t.hits[end] = t.hits[end], t.hits[0]
		siftWorst(t.hits[:end], 0)
	}
	return t.hits
}

// siftWorst moves h[i] down until no entry ranks above its children under
// wire.HitLess, so h[0] is the worst hit of the heap.
func siftWorst(h []wire.Hit, i int) {
	for {
		w, l, r := i, 2*i+1, 2*i+2
		if l < len(h) && wire.HitLess(h[w], h[l]) {
			w = l
		}
		if r < len(h) && wire.HitLess(h[w], h[r]) {
			w = r
		}
		if w == i {
			return
		}
		h[i], h[w] = h[w], h[i]
		i = w
	}
}

// Aligner is implemented by engines that can run the traceback phase
// (§II-A phase 2) for one database hit.
type Aligner interface {
	// AlignHit recovers the optimal local alignment of the query against
	// database sequence hitIndex.
	AlignHit(query *seq.Sequence, hitIndex int) (*sw.Alignment, error)
}

// AlignHit implements Aligner with the linear-space traceback, so phase 2
// works even for the 5,000-residue queries of the paper's workload.
func (e *FarrarEngine) AlignHit(query *seq.Sequence, hitIndex int) (*sw.Alignment, error) {
	if hitIndex < 0 || hitIndex >= len(e.db) {
		return nil, fmt.Errorf("slave: hit index %d out of range", hitIndex)
	}
	return sw.AlignLinearSpace(query.Residues, e.db[hitIndex].Residues, e.scheme), nil
}
