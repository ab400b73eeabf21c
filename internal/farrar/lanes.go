package farrar

// This file is the inter-sequence lane path: one database sequence per
// byte lane of a vector register, the layout of CUDASW++ 2.0's inter-task
// kernel and of SWIPE (Rognes 2011). The register is a ZMM's 64 lanes on
// a host with AVX-512 BW and VBMI (lanes64) and a YMM's 32 on one with
// AVX2 only (lanesAVX2); the width is a property of the layout, set once
// by the CPUID probe. Lanes share no data, so the column
// recurrence needs no lazy-F pass, and every query row costs the same
// handful of instructions whatever the query length. That is the shape a
// short query needs: a striped column amortises its fixed cost over only
// m/lanes segments.
//
// A Batch holds the lane layout of a run of database targets. The layout
// depends on the targets and the alphabet only, never on the query, so
// one Batch serves every query of a database range. Targets up to
// laneMaxTarget residues are packed longest first, each into the lane
// that frees up first (refill): when a lane's sequence ends, the next
// column starts its next one. A start byte carries the laneStart flag;
// on that column the kernel stores the running maxima of all lanes to the
// next harvest slot, then zeroes the starting lanes' maxima and their
// loaded H and E. A lane whose last sequence ends before the layout does
// gets the flag on its first idle column too, so its maximum is
// harvested before idle columns run on. Longer targets, and every target
// when the query is laneMaxQuery residues or longer, keep the striped
// kernel.
//
// Like the striped avx8, the lane kernels work in biased unsigned bytes and
// escalate at ceiling8, so a lane's (score, ok) pair is ScoreU8's.
// swcheck's purity analyzer keeps this file, like the other native kernel
// files, off the emulated internal/simd ISA; the lane kernels' emulated
// oracle is scoreLanesEmulated in farrar.go, at either width.

import (
	"runtime"
	"sort"
	"sync"

	"repro/internal/seq"
)

const (
	// laneRow is the bytes of one query row of the lane profile: the
	// table of the kernels' score gather, so the alphabet plus the
	// out-of-alphabet row must fit in it. It is the same at both widths.
	laneRow = 32
	// laneStart flags a layout byte whose lane starts a new sequence (or
	// goes idle) on that column. The score gathers ignore it (VPSHUFB
	// reads bits 0-3 and the blend bit 4, VPERMB bits 0-5), so the flag
	// rides in bit 6 of the residue index.
	laneStart = 0x40
	// laneMaxTarget is the longest target the lane path takes. Longer
	// ones hold a lane for so many columns that the others run out of
	// sequences and idle; they keep the striped kernel, CUDASW++ 2.0's
	// split of long targets to its intra-task kernel. On the benchmark
	// database cut into 8 ranges, 1500 puts 94 % of the residues in 64
	// lanes that are 97 % full; 1000 leaves 14 % of the residues to the
	// striped kernel, slow for short queries, and 3000 idled a fifth of
	// the 32 lanes' slots at 16 ranges (BenchmarkScoreBatchDB).
	laneMaxTarget = 1500
	// laneMaxQuery is the query length from which the striped kernel
	// scores every target: there the striped column's fixed cost is
	// amortised, the lanes' H and E rows outgrow the L1 cache, and striped
	// AVX2 ties the 32 lanes (BenchmarkLanesByLen, BenchmarkScoreBatchDB).
	// On a 2-vCPU AVX-512 VBMI Xeon, in GCUPS over 2 runs, 64 lanes led
	// striped AVX2 at every length up to 5000 aa (1000 aa: 14.5-14.7 vs
	// 10.4-11.4; 5000 aa: 13.2-13.6 vs 12.0-12.6), while 32 lanes trail it
	// from about 1000 aa (8.6-9.4 at 1000, 8.4-9.1 at 5000). The threshold
	// stays until a benchmark workload sends queries of 800 aa or more.
	laneMaxQuery = 800
)

// inLanes reports whether a target of n residues goes to the lane path.
// Empty targets score 0 on the striped path, which returns at once.
func inLanes(n int) bool { return n > 0 && n <= laneMaxTarget }

// laneKernel is a lane kernel and its width in byte lanes. run runs the
// lane recurrence over the columns of cols (width residue bytes each) for
// the query profile prof (laneRow biased bytes per query row). he holds
// each query row's H and E vectors (2*width bytes per row) and vmax, of
// width bytes, the lanes' running maxima, both carried from call to call.
// On every flagged column the kernel writes vmax to the next width bytes
// of harvest before resetting the starting lanes; it returns the number of
// slots written. lanes64 and lanesAVX2 are the native kernels and
// scoreLanesEmulated, at either width, their oracle.
type laneKernel struct {
	width int
	run   func(prof, cols, he, harvest, vmax []byte, bias, gapOE, gapE int) (slots int)
}

// laneSeq places one target in a layout: its lane, and the harvest slot
// holding the lane's maximum once the target has ended (the layout's
// slot count for the final maxima).
type laneSeq struct {
	target int32
	slot   int32
	lane   uint8
}

// laneLayout is a Batch's lane packing for a kernel of width lanes: cols
// holds one width-byte column per step of the lanes, each byte a residue
// index, the alphabet size for an idle lane, plus laneStart.
type laneLayout struct {
	alpha    *seq.Alphabet
	width    int
	cols     []byte
	seqs     []laneSeq
	slots    int   // flagged columns, so harvest slots before the final maxima
	residues int64 // residues of the targets in lanes
}

// Batch is a run of database targets prepared for scoring against many
// queries: the targets and, on a host that runs a lane kernel, their lane
// layout and the kernel it is laid out for. It is read-only once built,
// so goroutines may share it.
type Batch struct {
	targets [][]byte
	lanes   *laneLayout // nil: every target takes the striped kernel
	kern    laneKernel
}

// NewBatch prepares targets for ScoreBatch under alphabet a. The lane
// layout is built only where a lane kernel runs, at its width: on an AVX2
// host, for an alphabet whose residues plus the out-of-alphabet row fit
// the laneRow entries of the kernel's score gather.
func NewBatch(targets [][]byte, a *seq.Alphabet) *Batch {
	b := &Batch{targets: targets, kern: nativeLanes}
	if nativeLanes.run != nil {
		b.lanes = buildLanes(targets, a, nativeLanes.width)
	}
	return b
}

// buildLanes packs the lane targets of targets into width lanes, longest
// first, each into the lane that frees up first (ties to the lower lane).
// It returns nil when the alphabet does not fit the gather or no target
// goes to lanes.
func buildLanes(targets [][]byte, a *seq.Alphabet, width int) *laneLayout {
	if a.Size()+1 > laneRow {
		return nil
	}
	var order []int32
	for i, t := range targets {
		if inLanes(len(t)) {
			order = append(order, int32(i))
		}
	}
	if len(order) == 0 {
		return nil
	}
	sort.SliceStable(order, func(x, y int) bool { return len(targets[order[x]]) > len(targets[order[y]]) })
	l := &laneLayout{alpha: a, width: width, seqs: make([]laneSeq, len(order))}
	start := make([]int, len(order))
	end := make([]int, width)
	for j, ti := range order {
		lane := 0
		for x := 1; x < width; x++ {
			if end[x] < end[lane] {
				lane = x
			}
		}
		l.seqs[j] = laneSeq{target: ti, lane: uint8(lane)}
		start[j] = end[lane]
		end[lane] += len(targets[ti])
		l.residues += int64(len(targets[ti]))
	}
	ncols := 0
	for _, e := range end {
		ncols = max(ncols, e)
	}
	idle := byte(a.Size())
	allocCols(l, ncols*width)
	for i := range l.cols {
		l.cols[i] = idle
	}
	for j, s := range l.seqs {
		at := start[j]*width + int(s.lane)
		for _, c := range targets[s.target] {
			ri := a.Index(c)
			if ri < 0 {
				ri = a.Size() // the all-minimum row, like the striped profile's
			}
			l.cols[at] = byte(ri)
			at += width
		}
		if start[j] > 0 {
			l.cols[start[j]*width+int(s.lane)] |= laneStart
		}
	}
	for lane, e := range end {
		if e < ncols {
			l.cols[e*width+lane] |= laneStart
		}
	}
	// Harvest slots are the flagged columns in order; a target's maximum
	// is in the slot of the column after its last, or in the final maxima.
	slotAt := make([]int32, ncols)
	for c := range ncols {
		slotAt[c] = int32(l.slots)
		for _, x := range l.cols[c*width : (c+1)*width] {
			if x&laneStart != 0 {
				l.slots++
				break
			}
		}
	}
	for j := range l.seqs {
		s := &l.seqs[j]
		s.slot = int32(l.slots)
		if e := start[j] + len(targets[s.target]); e < ncols {
			s.slot = slotAt[e]
		}
	}
	return l
}

// PathCells counts the DP cells a kernel's ScoreBatch calls scored on
// each path, the inter-sequence lanes and the striped kernel, and apart
// from them the cells the 16-bit rung re-scored after an 8-bit overflow,
// for Score and ScoreBatch alike.
type PathCells struct {
	Lanes      int64
	Striped    int64
	Rescored16 int64
}

// Total returns the cells of the two paths, once per target: the
// re-scored cells are not in it.
func (c PathCells) Total() int64 { return c.Lanes + c.Striped }

// Sub returns the cells c gained since o, an earlier reading of the same
// kernel's PathCells.
func (c PathCells) Sub(o PathCells) PathCells {
	return PathCells{Lanes: c.Lanes - o.Lanes, Striped: c.Striped - o.Striped, Rescored16: c.Rescored16 - o.Rescored16}
}

// PathCells returns the cells scored so far.
func (k *Kernel) PathCells() PathCells { return k.cells }

// ScoreBatch scores the kernel's query against every target of b, writing
// target i's score to scores[i], through the same 8 -> 16 -> scalar ladder
// and Stats as Score. The lane kernel takes the targets up to
// laneMaxTarget residues when b has a layout, the query is shorter than
// laneMaxQuery and the 8-bit tier admits the scheme; the striped kernel
// takes the rest, in target order. ScoreBatch calls step with the
// cumulative cell count after about every every cells; when step returns
// false it stops and returns false, leaving scores partly written.
func (k *Kernel) ScoreBatch(b *Batch, scores []int, every int64, step func(cells int64) bool) bool {
	lanes := b.lanes != nil && k.tier8 && len(k.query) < laneMaxQuery && b.lanes.alpha == k.scheme.Matrix.Alphabet()
	if lanes && !k.scoreLanes(b, scores, every, step) {
		return false
	}
	var since int64
	for i, t := range b.targets {
		if lanes && inLanes(len(t)) {
			continue
		}
		scores[i] = k.Score(t)
		n := k.Cells(t)
		k.cells.Striped += n
		if since += n; since >= every {
			if !step(k.cells.Total()) {
				return false
			}
			since = 0
		}
	}
	return true
}

// scoreLanes runs b's lane kernel over its layout in chunks of about
// every cells, then resolves every lane target: a maximum below ceiling8
// is its score, and one at the ceiling escalates through the rest of the
// ladder.
func (k *Kernel) scoreLanes(b *Batch, scores []int, every int64, step func(int64) bool) bool {
	l := b.lanes
	m, w := len(k.query), l.width
	buf := laneBufs.get()
	defer laneBufs.put(buf)
	// One buffer: the profile, the H and E rows, vmax and the harvest slots.
	if need := laneRow*m + 2*w*m + w + l.slots*w; cap(*buf) < need {
		*buf = make([]byte, need)
	}
	prof, rest := (*buf)[:laneRow*m], (*buf)[laneRow*m:]
	he, vmax, harvest := rest[:2*w*m], rest[2*w*m:2*w*m+w], rest[2*w*m+w:2*w*m+w+l.slots*w]
	k.laneProfile(prof)
	clear(he)
	clear(vmax)
	gapOE, gapE := k.scheme.Gap.Open+k.scheme.Gap.Extend, k.scheme.Gap.Extend
	ncols := len(l.cols) / w
	chunk := max(1, int(every/int64(w*m)))
	base, total := k.cells.Total(), int64(m)*l.residues
	slots := 0
	for c := 0; c < ncols; c += chunk {
		e := min(c+chunk, ncols)
		slots += b.kern.run(prof, l.cols[c*w:e*w], he, harvest[slots*w:], vmax, k.bias, gapOE, gapE)
		if e < ncols && !step(base+total*int64(e)/int64(ncols)) {
			return false
		}
	}
	runtime.KeepAlive(l) // allocCols may have mapped l.cols outside the heap until l is collected
	k.cells.Lanes += total
	for _, s := range l.seqs {
		v := int(vmax[s.lane])
		if int(s.slot) < l.slots {
			v = int(harvest[int(s.slot)*w+int(s.lane)])
		}
		if v < k.ceiling8() {
			k.stats.Scored8++
			scores[s.target] = v
		} else {
			scores[s.target] = k.escalate(b.targets[s.target])
		}
	}
	return true
}

// laneBufs recycles scoreLanes' buffers (query profile, H and E rows,
// harvest slots) across calls; a range task of a 600 aa query needs about
// 100 KB of them at 64 lanes. Allocated per task, or dropped at every collection as a
// sync.Pool drops them, buffers that large are freed and re-allocated
// around the clock, which raised scan_batch's peak RSS by a further 5 %.
// The list never holds more buffers than calls were ever in flight at
// once.
var laneBufs freeList

type freeList struct {
	mu   sync.Mutex
	free []*[]byte
}

func (f *freeList) get() *[]byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n := len(f.free); n > 0 {
		b := f.free[n-1]
		f.free = f.free[:n-1]
		return b
	}
	return new([]byte)
}

func (f *freeList) put(b *[]byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.free = append(f.free, b)
}

// laneProfile writes the lane kernels' query profile to prof: for each
// query row, the laneRow-byte biased matrix row of its residue, indexed by
// target residue (the out-of-alphabet entry at the alphabet size scores
// the matrix minimum; the unused tail is biased zero).
func (k *Kernel) laneProfile(prof []byte) {
	alpha := k.scheme.Matrix.Alphabet()
	clear(prof)
	for i, c := range k.query {
		qi := byte(alpha.Index(c))
		row := prof[i*laneRow : (i+1)*laneRow]
		for r := range alpha.Size() {
			row[r] = uint8(k.scheme.Matrix.ScoreIndex(byte(r), qi) + k.bias)
		}
		row[alpha.Size()] = uint8(k.scheme.Matrix.Min() + k.bias)
	}
}
