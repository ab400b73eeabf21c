// Package slave implements the slave side of the task execution
// environment: the request/execute/notify loop of Fig. 4 plus its one
// engine, the adapted Farrar striped kernel (§IV-C). A CPU slave and a GPU
// slave are the same FarrarEngine under a different kind label, so both
// run every task kind, and the scheduler tells them apart only by the
// speed it observes. A task is one query against one contiguous range of
// the engine's resident database (RangeSearcher) — the whole of it when
// the master cuts no ranges, the paper's grain. FarrarEngine.SearchRange
// is the tree's one scan loop; several cores serve one query by running
// one engine each on different ranges, not by threading an engine. On an
// AVX2 host the scan scores most of a range on farrar's inter-sequence
// lanes, one database sequence per byte lane, and the rest (long targets,
// long queries) one striped-kernel score per sequence.
package slave

import (
	"fmt"
	"sync"

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

// FarrarEngine is the engine of every slave: one CPU core running the
// adapted Farrar striped Smith-Waterman (AVX2 or SSE2 assembly on amd64,
// SWAR elsewhere) and, on an AVX2 host, the inter-sequence lane kernel
// that scores short targets one per byte lane.
type FarrarEngine struct {
	name     string
	kind     sched.SlaveKind
	scheme   score.Scheme
	db       []*seq.Sequence
	residues int64
	declared float64
	kmet     *farrar.Metrics
	pmet     *prefilter.Metrics
	batches  *rangeBatches
}

// SetKernelMetrics attaches the farrar kernel-telemetry bundle; each
// Search observes its kernel's tier stats and path cells on completion.
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
		batches: &rangeBatches{m: map[[2]int]*rangeBatch{}},
	}
	for _, d := range db {
		e.residues += int64(d.Len())
	}
	return e, nil
}

// Replica returns another engine named name over e's database and
// scheme that registers as kind. It shares e's range batches, so the
// replicas of one database hold one lane layout per range between them,
// and starts with e's metrics bundles. A GPU slave is a replica of kind
// sched.KindGPU (§IV-C: "CUDASW was encapsulated and easily integrated to
// our tool"): the inter-sequence lanes are CUDASW++ 2.0's inter-task
// kernel on CPU vector lanes, and the kind only feeds PSS, the events and
// the reports. Virtual-time experiments take a GPU's speed from
// platform.GPUPE instead.
func (e *FarrarEngine) Replica(name string, kind sched.SlaveKind) *FarrarEngine {
	r := *e
	r.name, r.kind = name, kind
	return &r
}

// Name implements Engine.
func (e *FarrarEngine) Name() string { return e.name }

// Kind implements Engine: sched.KindCPU unless Replica set another.
func (e *FarrarEngine) Kind() sched.SlaveKind { return e.kind }

// DeclaredSpeed implements Engine.
func (e *FarrarEngine) DeclaredSpeed() float64 { return e.declared }

// DatabaseResidues implements Engine.
func (e *FarrarEngine) DatabaseResidues() int64 { return e.residues }

// RangeSearcher is the optional engine interface for database-range tasks:
// Search restricted to the half-open sequence-index range [lo, hi) of the
// resident database, keeping only the range's k best hits. It returns them
// ranked by wire.HitLess (for k <= 0 every hit of the range, in database
// order), with Index still the position in the whole resident database,
// and reports progress in cells of the range. The slave loop fails a range
// task on an engine that lacks it.
type RangeSearcher interface {
	SearchRange(query *seq.Sequence, lo, hi, k int, progress func(cellsDone int64), cancel <-chan struct{}) ([]wire.Hit, error)
}

// Search implements Engine: the whole database as one range.
func (e *FarrarEngine) Search(query *seq.Sequence, progress func(int64), cancel <-chan struct{}) ([]wire.Hit, error) {
	return e.SearchRange(query, 0, len(e.db), 0, progress, cancel)
}

// SearchRange implements RangeSearcher. One kernel scores the query
// against the range's farrar.Batch: targets up to the lane threshold on
// the inter-sequence lanes, one database sequence per byte lane, and the
// rest on the striped kernel, one sequence at a time in database order
// (§IV-B: database files are processed sequentially on the PEs). Scores
// land by database index and enter a k-entry heap in database order, so
// ranking and ties do not depend on the path.
func (e *FarrarEngine) SearchRange(query *seq.Sequence, lo, hi, k int, progress func(int64), cancel <-chan struct{}) ([]wire.Hit, error) {
	if lo < 0 || hi > len(e.db) || lo > hi {
		return nil, fmt.Errorf("slave: range [%d,%d) outside the %d-sequence database", lo, hi, len(e.db))
	}
	kern, err := farrar.NewKernel(query.Residues, e.scheme)
	if err != nil {
		return nil, err
	}
	select {
	case <-cancel:
		return nil, ErrCanceled
	default:
	}
	const progressChunk = 1 << 22 // ~4M cells between progress callbacks and cancellation checks
	scores := make([]int, hi-lo)
	if !kern.ScoreBatch(e.batches.get(e, lo, hi), scores, progressChunk, func(cells int64) bool {
		if progress != nil {
			progress(cells)
		}
		select {
		case <-cancel:
			return false
		default:
			return true
		}
	}) {
		return nil, ErrCanceled
	}
	if progress != nil {
		progress(kern.PathCells().Total())
	}
	e.kmet.Observe(kern.Stats())
	e.kmet.ObserveCells(kern.PathCells())
	top := newTopHits(k, hi-lo)
	for i, d := range e.db[lo:hi] {
		top.add(wire.Hit{SeqID: d.ID, Index: lo + i, Score: scores[i]})
	}
	return top.result(), nil
}

// rangeBatches holds the farrar.Batch of each database range an engine
// has scanned, built on the range's first search. The ranges are the
// fleet's fixed cut (or the whole database for a task with none), so the
// batches hold about one byte per database residue per cut. A batch's
// lane layout is query-independent and read-only, so an engine and its
// replicas (FarrarEngine.Replica) share one copy per range.
type rangeBatches struct {
	mu sync.Mutex
	m  map[[2]int]*rangeBatch
}

type rangeBatch struct {
	once  sync.Once
	batch *farrar.Batch
}

// get returns the batch of e's range [lo, hi), building it once.
func (c *rangeBatches) get(e *FarrarEngine, lo, hi int) *farrar.Batch {
	c.mu.Lock()
	rb := c.m[[2]int{lo, hi}]
	if rb == nil {
		rb = &rangeBatch{}
		c.m[[2]int{lo, hi}] = rb
	}
	c.mu.Unlock()
	rb.once.Do(func() { rb.batch = e.newBatch(lo, hi) })
	return rb.batch
}

// newBatch prepares the range [lo, hi) of e's database for ScoreBatch.
func (e *FarrarEngine) newBatch(lo, hi int) *farrar.Batch {
	targets := make([][]byte, hi-lo)
	for i, d := range e.db[lo:hi] {
		targets[i] = d.Residues
	}
	return farrar.NewBatch(targets, e.scheme.Matrix.Alphabet())
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
