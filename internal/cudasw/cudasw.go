// Package cudasw implements a CUDASW++ 2.0-style Smith-Waterman database
// search engine with a simulated GPU device model.
//
// The paper runs CUDASW++ 2.0 (Liu, Schmidt, Maskell 2010) on its GPU
// slaves. That engine's observable structure, reproduced here:
//
//   - the database is sorted by sequence length and packed into warp-sized
//     batches, so the threads of a warp align similarly-sized sequences and
//     divergence/padding stays small;
//   - sequences up to a length threshold are aligned by the *inter-task*
//     SIMT kernel (one alignment per thread); longer sequences fall back to
//     the *intra-task* kernel built on a virtualized SIMD abstraction;
//   - per-search costs (kernel launches, host transfers) amortize over the
//     database, which is why measured GCUPS grows with database size — the
//     effect behind Table IV's SwissProt-vs-small-database gap.
//
// Scores are computed for real (bit-exact with internal/sw, via the striped
// kernel of internal/farrar as the compute core). Time is *simulated*: a
// cycle-level cost model of the device returns the duration the search
// would take, which the discrete-event experiments consume. No actual GPU
// is involved (the machine has none); DESIGN.md documents this substitution.
package cudasw

import (
	"fmt"
	"sort"

	"repro/internal/farrar"
	"repro/internal/score"
	"repro/internal/seq"
	"time"
)

// Device describes the simulated GPU. The defaults model the NVIDIA GTX 580
// (Fermi GF110) used by the paper's testbed.
type Device struct {
	Name       string
	SMs        int     // streaming multiprocessors
	CoresPerSM int     // CUDA cores per SM
	ClockHz    float64 // shader clock
	// CellsPerCoreCycle is the sustained DP-cell throughput per core per
	// cycle for the inter-task kernel, calibrated so that peak GCUPS
	// matches CUDASW++ 2.0 on this device (~35 GCUPS on a GTX 580:
	// 16 SMs * 32 cores * 1.544 GHz * 0.044 ≈ 35e9 cells/s).
	CellsPerCoreCycle float64
	// IntraTaskEfficiency discounts the intra-task (long-sequence) kernel
	// relative to the inter-task one.
	IntraTaskEfficiency float64
	// LaunchOverhead is charged once per kernel launch; TransferBytesPerSec
	// models host->device sequence upload for the query.
	LaunchOverhead      time.Duration
	TransferBytesPerSec float64
	// SearchOverhead is charged once per query search (result download,
	// host-side setup) — the cost that small databases cannot amortize.
	SearchOverhead time.Duration
	// MemoryBytes is the device memory available for database residues.
	// A database larger than this is processed in resident chunks, paying
	// an extra host->device transfer of the chunk per search. 0 means
	// unlimited.
	MemoryBytes int64
}

// GTX580 returns the device model of the paper's GPUs.
func GTX580() Device {
	return Device{
		Name:                "GeForce GTX 580",
		SMs:                 16,
		CoresPerSM:          32,
		ClockHz:             1.544e9,
		CellsPerCoreCycle:   0.0443,
		IntraTaskEfficiency: 0.60,
		LaunchOverhead:      80 * time.Microsecond,
		TransferBytesPerSec: 5e9, // PCIe 2.0 x16 effective
		SearchOverhead:      350 * time.Millisecond,
		MemoryBytes:         1536 << 20, // GTX 580: 1.5 GB
	}
}

// PeakCellsPerSecond returns the device's theoretical inter-task throughput.
func (d Device) PeakCellsPerSecond() float64 {
	return float64(d.SMs) * float64(d.CoresPerSM) * d.ClockHz * d.CellsPerCoreCycle
}

const (
	// interTaskMaxLen is the CUDASW++ 2.0 length threshold: database
	// sequences at most this long use the inter-task SIMT kernel.
	interTaskMaxLen = 3072
	// warpSize is the CUDA warp width; the inter-task kernel pads every
	// warp's sequences to the longest in the warp.
	warpSize = 32
	// seqsPerLaunch bounds how many alignments one kernel launch covers.
	seqsPerLaunch = 64 * 1024
)

// Hit is the score of the query against one database sequence.
type Hit struct {
	Index int    // position in the original (unsorted) database
	ID    string // database sequence ID
	Score int
}

// Report describes one simulated search: where the time went and how the
// work split across kernels.
type Report struct {
	Cells          int64 // useful DP cells (the GCUPS numerator)
	PaddedCells    int64 // cells including warp padding
	InterTaskSeqs  int
	IntraTaskSeqs  int
	KernelLaunches int
	Elapsed        time.Duration // simulated wall time on the device
	// Kernel reports how the real compute core resolved each sequence
	// across the 8/16/scalar overflow ladder (zero when compute=false).
	Kernel farrar.Stats
}

// Engine is a loaded database ready to be searched, the moral equivalent of
// a CUDASW++ process with the database resident on the device.
type Engine struct {
	dev    Device
	scheme score.Scheme

	seqs     []*seq.Sequence // sorted by length, ascending
	origIdx  []int           // sorted position -> original index
	residues int64
	nInter   int // sequences handled by the inter-task kernel
}

// NewEngine sorts and "uploads" the database. The sort by length is the
// CUDASW++ preprocessing step that keeps warps convergent.
func NewEngine(dev Device, s score.Scheme, db []*seq.Sequence) (*Engine, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if len(db) == 0 {
		return nil, fmt.Errorf("cudasw: empty database")
	}
	e := &Engine{dev: dev, scheme: s}
	e.origIdx = make([]int, len(db))
	for i := range e.origIdx {
		e.origIdx[i] = i
	}
	sort.SliceStable(e.origIdx, func(a, b int) bool {
		return db[e.origIdx[a]].Len() < db[e.origIdx[b]].Len()
	})
	e.seqs = make([]*seq.Sequence, len(db))
	for pos, oi := range e.origIdx {
		e.seqs[pos] = db[oi]
		e.residues += int64(db[oi].Len())
	}
	e.nInter = sort.Search(len(e.seqs), func(i int) bool { return e.seqs[i].Len() > interTaskMaxLen })
	return e, nil
}

// DatabaseResidues returns the total residue count of the loaded database.
func (e *Engine) DatabaseResidues() int64 { return e.residues }

// DatabaseSeqs returns the number of database sequences.
func (e *Engine) DatabaseSeqs() int { return len(e.seqs) }

// ErrCanceled is returned by SearchRange when its cancel channel closed
// mid-search.
var ErrCanceled = fmt.Errorf("cudasw: search canceled")

// SearchRange aligns the query against the database sequences whose
// original index lies in [lo, hi): the length-sorted list is walked as usual
// and sequences outside the range are skipped, so warps still hold similar
// lengths, and the cost model charges only the range's cells. It returns
// hi-lo hits in original database order plus the simulated cost report, and
// stops with ErrCanceled once cancel closes (a nil channel never does).
func (e *Engine) SearchRange(query []byte, lo, hi int, compute bool, cancel <-chan struct{}) ([]Hit, Report, error) {
	if len(query) == 0 {
		return nil, Report{}, fmt.Errorf("cudasw: empty query")
	}
	if lo < 0 || hi > len(e.seqs) || lo > hi {
		return nil, Report{}, fmt.Errorf("cudasw: range [%d,%d) outside the %d-sequence database", lo, hi, len(e.seqs))
	}
	var kern *farrar.Kernel
	if compute {
		var err error
		kern, err = farrar.NewKernel(query, e.scheme)
		if err != nil {
			return nil, Report{}, err
		}
	}
	m := int64(len(query))
	rep := Report{}
	hits := make([]Hit, hi-lo)
	var residues, intraCells int64
	// warpN and warpMax describe the inter-task warp being filled: up to 32
	// similar-length sequences, padded to the longest of them.
	warpN, warpMax := 0, 0
	flushWarp := func() {
		rep.PaddedCells += m * int64(warpMax) * int64(warpN)
		warpN, warpMax = 0, 0
	}
	for pos, s := range e.seqs {
		oi := e.origIdx[pos]
		if oi < lo || oi >= hi {
			continue
		}
		select {
		case <-cancel:
			return nil, Report{}, ErrCanceled
		default:
		}
		n := int64(s.Len())
		residues += n
		rep.Cells += m * n
		hits[oi-lo] = Hit{Index: oi, ID: s.ID}
		if kern != nil {
			hits[oi-lo].Score = kern.Score(s.Residues)
		}
		if pos < e.nInter {
			// Inter-task kernel: one alignment per thread.
			rep.InterTaskSeqs++
			warpMax = max(warpMax, s.Len())
			if warpN++; warpN == warpSize {
				flushWarp()
			}
			continue
		}
		// Intra-task kernel: one launch per long sequence.
		intraCells += m * n
		rep.IntraTaskSeqs++
		rep.KernelLaunches++
	}
	flushWarp()
	rep.PaddedCells += intraCells
	if rep.InterTaskSeqs > 0 {
		rep.KernelLaunches += (rep.InterTaskSeqs + seqsPerLaunch - 1) / seqsPerLaunch
	}
	rep.Elapsed = e.cost(m, rep, intraCells, residues)
	if kern != nil {
		rep.Kernel = kern.Stats()
	}
	return hits, rep, nil
}

// cost is the device cost model: query transfer, per-launch overheads, and
// padded cells at kernel-specific throughput, plus the fixed per-search
// overhead. Long-sequence cells (intraCells, part of rep.PaddedCells) run
// at the discounted intra-task rate; residues is the searched range's size.
func (e *Engine) cost(m int64, rep Report, intraCells, residues int64) time.Duration {
	peak := e.dev.PeakCellsPerSecond()
	interPadded := rep.PaddedCells - intraCells

	secs := float64(interPadded) / peak
	if intraCells > 0 {
		eff := e.dev.IntraTaskEfficiency
		if eff <= 0 {
			eff = 1
		}
		secs += float64(intraCells) / (peak * eff)
	}
	d := time.Duration(secs * float64(time.Second))
	d += time.Duration(rep.KernelLaunches) * e.dev.LaunchOverhead
	if e.dev.TransferBytesPerSec > 0 {
		d += time.Duration(float64(m) / e.dev.TransferBytesPerSec * float64(time.Second))
		// A range that does not fit in device memory is streamed in
		// chunks: every chunk beyond the resident first one re-uploads
		// its residues for this search.
		if e.dev.MemoryBytes > 0 && residues > e.dev.MemoryBytes {
			chunks := (residues + e.dev.MemoryBytes - 1) / e.dev.MemoryBytes
			extra := float64((chunks-1)*e.dev.MemoryBytes) / e.dev.TransferBytesPerSec
			d += time.Duration(extra * float64(time.Second))
		}
	}
	d += e.dev.SearchOverhead
	return d
}
