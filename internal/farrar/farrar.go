// Package farrar implements Farrar's striped Smith-Waterman algorithm
// (Farrar 2007, "Striped Smith-Waterman speeds database searches six times
// over other SIMD implementations"), the algorithm the paper runs on its
// multicore SSE slaves (§IV-C).
//
// The query is laid out in the striped pattern: with L vector lanes and
// segment length segLen = ceil(m/L), vector element (lane l, segment s)
// holds query position l*segLen + s, which moves the inter-lane dependency
// of the F (vertical gap) recurrence out of the inner loop into a rare
// correction pass.
//
// The package holds the native kernels and the emulated-ISA transcription
// kept as their oracle:
//
//   - on amd64 the 8-bit tier is Farrar's kernel in Go assembly on 16 SSE2
//     byte lanes, the baseline, or 32 AVX2 ones, transcribing ScoreU8
//     instruction for instruction. A CPUID probe read once and the query
//     length pick the width; ISA names the host's widest path.
//   - on an AVX2 host ScoreBatch, the database scan, scores most targets
//     on an inter-sequence lane kernel instead (lanes.go): one target per
//     byte lane, 64 lanes with AVX-512 BW and VBMI and 32 with AVX2 only,
//     with the striped kernel's biased arithmetic and ceiling8 but no
//     lazy-F pass. Their oracle, scoreLanesEmulated, transcribes both
//     widths on the emulated ISA.
//   - the SWAR kernel (ScoreSWAR8, ScoreSWAR16) packs 8 byte lanes — or 4
//     word lanes in the fallback tier — into a uint64 and computes all
//     lanes at once with the loop-free bit tricks of internal/simd/swar.
//     It is the 16-bit tier everywhere and the 8-bit tier off amd64.
//   - the oracle (ScoreU8, ScoreI16) runs the same recurrences on the
//     emulated SSE2 ISA of internal/simd, one Go loop iteration per lane —
//     slow, but a direct transcription of the SSE original, the bit-exact
//     reference the differential tests compare against.
//
// All use the same overflow ladder. The 8-bit tier holds DP values as
// biased unsigned bytes (Farrar's original formulation): the query profile
// carries bias = -matrix.Min(). The SWAR kernel keeps every byte lane below
// 128 so each lane's top bit is a guard bit (see internal/simd/swar), which
// makes its saturating add clamp at 127: the largest score the tier can
// certify is ceiling8 = 127 - bias (123 for BLOSUM62), and a score reaching
// it may have been clipped and escalates. The SSE2/AVX2 tier and the emulated
// oracle use full byte lanes but escalate at the same ceiling. The 16-bit
// tier keeps word lanes below 32768 the same way, certifying scores below
// ceiling16 = 32767 - bias (the paper's adapted signed variant in the
// emulated kernel; a biased unsigned rendering with the same ceiling in
// the SWAR kernel), and the scalar reference resolves anything beyond. A cell clips only when its true value
// reaches the ceiling, so every implementation returns the same (score, ok)
// pair on every tier.
//
// A Kernel precomputes the striped query profile once and scores many
// database sequences against it, trying the 8-bit kernel first and
// falling back on overflow, exactly like the SSE original. It reuses one
// DP scratch buffer across targets, so a Kernel is not safe for concurrent
// use: build one per goroutine.
package farrar

import (
	"fmt"

	"repro/internal/score"
	"repro/internal/simd"
	"repro/internal/sw"
)

const (
	lanes8  = 16 // byte lanes in an emulated 128-bit register
	lanes16 = 8  // 16-bit lanes in an emulated 128-bit register
)

// Stats counts kernel dispatch decisions across the lifetime of a Kernel.
type Stats struct {
	Scored8    int64 // sequences fully resolved by the 8-bit kernel
	Fallback16 int64 // sequences that overflowed 8-bit and used 16-bit
	FallbackSW int64 // sequences that overflowed 16-bit and used the scalar reference
}

// Add returns the sum of two stat sets — used to aggregate the private
// kernels of parallel workers into one observable total.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Scored8:    s.Scored8 + o.Scored8,
		Fallback16: s.Fallback16 + o.Fallback16,
		FallbackSW: s.FallbackSW + o.FallbackSW,
	}
}

// Sub returns the counts s gained since o, an earlier reading of the same
// kernel's cumulative Stats.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Scored8:    s.Scored8 - o.Scored8,
		Fallback16: s.Fallback16 - o.Fallback16,
		FallbackSW: s.FallbackSW - o.FallbackSW,
	}
}

// Total returns the number of sequences the stats cover.
func (s Stats) Total() int64 { return s.Scored8 + s.Fallback16 + s.FallbackSW }

// Kernel holds the striped query profiles for one query sequence. It is
// not safe for concurrent use: Score writes the kernel's DP scratch buffer
// and its Stats counters.
type Kernel struct {
	query  []byte
	scheme score.Scheme

	bias   int  // -matrix.Min(), added to 8-bit profile entries
	tier8  bool // the 8-bit tier's fixed-point assumptions hold
	tier16 bool // the 16-bit tier's fixed-point assumptions hold

	// Emulated-ISA profiles (the oracle path), built lazily.
	segLen8  int
	prof8    [][]simd.U8x16 // prof8[residueIndex][segment]
	segLen16 int
	prof16   [][]simd.I16x8

	// The native 8-bit tier's profile (SSE2/AVX2 on amd64, sse8_amd64.go;
	// empty elsewhere, where the SWAR profile below is the native one).
	native native8

	// SWAR profiles, one flat row of segLen words per residue. Byte lane l
	// of swarProf8[r*swarSegLen8+s] holds the biased score of query
	// position l*swarSegLen8 + s against residue r.
	swarSegLen8  int
	swarProf8    []uint64
	swarSegLen16 int
	swarProf16   []uint64

	// buf backs the native and SWAR kernels' DP columns, reused across
	// targets.
	buf []uint64

	stats Stats
	cells PathCells
}

// NewKernel validates the inputs and prepares the kernel.
func NewKernel(query []byte, s score.Scheme) (*Kernel, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if len(query) == 0 {
		return nil, fmt.Errorf("farrar: empty query")
	}
	if err := s.Matrix.Alphabet().Validate(query); err != nil {
		return nil, fmt.Errorf("farrar: query: %w", err)
	}
	k := &Kernel{query: query, scheme: s, bias: -s.Matrix.Min()}
	if k.bias < 0 {
		k.bias = 0
	}
	// Tier admission: the narrow kernels hold profile entries, gap
	// penalties and DP cells in lanes whose top bit is a guard bit; a
	// scheme whose constants do not fit below it would break the lane
	// invariant and mis-score, so such schemes skip the tier entirely
	// instead (the overflow ladder ends at the scalar reference, which has
	// no such limits).
	gapOE := s.Gap.Open + s.Gap.Extend
	k.tier8 = k.bias <= 127 && k.bias+s.Matrix.Max() <= 127 && gapOE <= 127
	k.tier16 = k.bias <= 32767 && k.bias+s.Matrix.Max() <= 32767 && gapOE <= 32767
	// Every tier's profile is built on first use: a database scan
	// whose targets all take the lane path never needs the striped one.
	return k, nil
}

// Stats returns cumulative kernel dispatch counters.
func (k *Kernel) Stats() Stats { return k.stats }

// ceiling8 is the smallest score the 8-bit tier cannot certify: DP cells
// are biased bytes below the guard bit, the saturating add clips at 127,
// and the bias is subtracted back out — so a result of 127 - bias is
// indistinguishable from a clipped larger score and must escalate.
func (k *Kernel) ceiling8() int { return 127 - k.bias }

// ceiling16 is ceiling8 for the 16-bit tier: word lanes clip at 32767.
// The signed emulated kernel adds no bias and clips later, but escalating
// at the same ceiling keeps the two implementations' (score, ok) pairs
// identical.
func (k *Kernel) ceiling16() int { return 32767 - k.bias }

// scratch returns the native kernels' three DP columns (H load, H store,
// E) of n words each, zeroed and contiguous, carved from the buffer the
// kernel reuses across targets.
func (k *Kernel) scratch(n int) (hLoad, hStore, e []uint64) {
	if cap(k.buf) < 3*n {
		k.buf = make([]uint64, 3*n)
	}
	b := k.buf[:3*n]
	clear(b)
	return b[:n], b[n : 2*n], b[2*n:]
}

func (k *Kernel) buildProfile8() {
	m := len(k.query)
	k.segLen8 = (m + lanes8 - 1) / lanes8
	alpha := k.scheme.Matrix.Alphabet()
	// One row per alphabet residue plus a final all-minimum row used for
	// database residues outside the alphabet (matching the scalar
	// reference, which scores them at the matrix minimum).
	k.prof8 = make([][]simd.U8x16, alpha.Size()+1)
	for r := 0; r <= alpha.Size(); r++ {
		segs := make([]simd.U8x16, k.segLen8)
		var row []int
		if r < alpha.Size() {
			row = k.scheme.Matrix.Row(r)
		}
		for s := 0; s < k.segLen8; s++ {
			var v simd.U8x16
			for l := 0; l < lanes8; l++ {
				qi := l*k.segLen8 + s
				if qi >= m {
					// Padding lanes hold biased zero — the most negative
					// representable entry — so phantom rows past the query
					// end can only decay (or, with bias 0, carry a real
					// value unchanged) and never outgrow the true maximum.
					// Matrix.Min() here would grow phantoms when Min > 0.
					continue
				}
				sc := k.scheme.Matrix.Min() // invalid residues score worst, like the scalar reference
				if row != nil {
					sc = row[alpha.Index(k.query[qi])]
				}
				v[l] = uint8(sc + k.bias)
			}
			segs[s] = v
		}
		k.prof8[r] = segs
	}
}

func (k *Kernel) buildProfile16() {
	m := len(k.query)
	k.segLen16 = (m + lanes16 - 1) / lanes16
	alpha := k.scheme.Matrix.Alphabet()
	k.prof16 = make([][]simd.I16x8, alpha.Size()+1)
	for r := 0; r <= alpha.Size(); r++ {
		segs := make([]simd.I16x8, k.segLen16)
		var row []int
		if r < alpha.Size() {
			row = k.scheme.Matrix.Row(r)
		}
		for s := 0; s < k.segLen16; s++ {
			var v simd.I16x8
			for l := 0; l < lanes16; l++ {
				qi := l*k.segLen16 + s
				if qi >= m {
					v[l] = -32768 // padding: saturating add floors, so phantoms never grow
					continue
				}
				sc := k.scheme.Matrix.Min()
				if row != nil {
					sc = row[alpha.Index(k.query[qi])]
				}
				v[l] = int16(sc)
			}
			segs[s] = v
		}
		k.prof16[r] = segs
	}
}

// Score returns the optimal local alignment score of the kernel's query vs
// target, automatically escalating 8-bit -> 16-bit -> scalar on overflow.
func (k *Kernel) Score(target []byte) int {
	if sc, ok := k.scoreNative8(target); ok {
		k.stats.Scored8++
		return sc
	}
	return k.escalate(target)
}

// escalate scores a target the 8-bit tier could not certify: the rest of
// the ladder, 16-bit then scalar.
func (k *Kernel) escalate(target []byte) int {
	if sc, ok := k.ScoreSWAR16(target); ok {
		k.stats.Fallback16++
		return sc
	}
	k.stats.FallbackSW++
	return sw.Score(k.query, target, k.scheme)
}

// Cells returns the DP cell count of scoring target, the GCUPS currency.
func (k *Kernel) Cells(target []byte) int64 {
	return sw.Cells(len(k.query), len(target))
}

// ScoreU8 runs the emulated-ISA 8-bit saturating kernel (the oracle for
// ScoreSWAR8, and on amd64 for its SSE2/AVX2 assembly transcription). ok
// is false when the score reached ceiling8, the point from which the SWAR
// kernel may clip.
func (k *Kernel) ScoreU8(target []byte) (sc int, ok bool) {
	if len(target) == 0 {
		return 0, true
	}
	if !k.tier8 {
		return 0, false
	}
	if k.prof8 == nil {
		k.buildProfile8()
	}
	segLen := k.segLen8
	alpha := k.scheme.Matrix.Alphabet()
	vBias := simd.SplatU8(uint8(k.bias))
	vGapOE := simd.SplatU8(uint8(k.scheme.Gap.Open + k.scheme.Gap.Extend))
	vGapE := simd.SplatU8(uint8(k.scheme.Gap.Extend))
	var vMax simd.U8x16

	vHLoad := make([]simd.U8x16, segLen)
	vHStore := make([]simd.U8x16, segLen)
	vE := make([]simd.U8x16, segLen)

	for _, c := range target {
		ri := alpha.Index(c)
		if ri < 0 {
			ri = alpha.Size() // all-minimum row for out-of-alphabet residues
		}
		prof := k.prof8[ri]

		var vF simd.U8x16
		// H of query position l*segLen-1 feeds lane l segment 0: shift the
		// last stored segment left one lane (zero fill = H[0][j-1] = 0).
		vH := simd.ShiftLanesLeftU8(vHLoad[segLen-1], 1)
		for s := 0; s < segLen; s++ {
			vH = simd.SubSatU8(simd.AddSatU8(vH, prof[s]), vBias)
			vH = simd.MaxU8(vH, vE[s])
			vH = simd.MaxU8(vH, vF)
			vMax = simd.MaxU8(vMax, vH)
			vHStore[s] = vH

			vHGap := simd.SubSatU8(vH, vGapOE)
			vE[s] = simd.MaxU8(simd.SubSatU8(vE[s], vGapE), vHGap)
			vF = simd.MaxU8(simd.SubSatU8(vF, vGapE), vHGap)
			vH = vHLoad[s]
		}

		// Lazy-F correction (Farrar's loop): keep sweeping the decaying F
		// carry through the striped column while it can still beat the
		// fresh gap openings the main pass already accounted for. The
		// carry decays by gapE >= 1 each step and the lane shift retires
		// it entirely after lanes8 sweeps, so the loop terminates; the
		// guard bounds it defensively, and if it ever were to expire the
		// kernel escalates to the next tier instead of returning a score
		// whose correction pass did not finish.
		vF = simd.ShiftLanesLeftU8(vF, 1)
		for s, guard := 0, segLen*(lanes8+1); simd.AnyGtU8(vF, simd.SubSatU8(vHStore[s], vGapOE)); guard-- {
			if guard <= 0 {
				return 0, false
			}
			nh := simd.MaxU8(vHStore[s], vF)
			if nh != vHStore[s] {
				vHStore[s] = nh
				vMax = simd.MaxU8(vMax, nh)
				// A raised H can feed a horizontal gap in the next column.
				vE[s] = simd.MaxU8(vE[s], simd.SubSatU8(nh, vGapOE))
			}
			vF = simd.SubSatU8(vF, vGapE)
			if s++; s == segLen {
				s = 0
				vF = simd.ShiftLanesLeftU8(vF, 1)
			}
		}

		vHLoad, vHStore = vHStore, vHLoad
	}
	best := int(simd.HMaxU8(vMax))
	if best >= k.ceiling8() {
		return 0, false // a saturating add may have clipped the true score
	}
	return best, true
}

// ScoreI16 runs the emulated-ISA 16-bit signed kernel (the paper's
// adapted variant, and the oracle for ScoreSWAR16). ok is false when the
// score reached ceiling16.
func (k *Kernel) ScoreI16(target []byte) (sc int, ok bool) {
	if len(target) == 0 {
		return 0, true
	}
	if !k.tier16 {
		return 0, false
	}
	if k.prof16 == nil {
		k.buildProfile16()
	}
	segLen := k.segLen16
	alpha := k.scheme.Matrix.Alphabet()
	vGapOE := simd.SplatI16(int16(k.scheme.Gap.Open + k.scheme.Gap.Extend))
	vGapE := simd.SplatI16(int16(k.scheme.Gap.Extend))
	var vZero simd.I16x8
	vMax := simd.SplatI16(0)

	vHLoad := make([]simd.I16x8, segLen)
	vHStore := make([]simd.I16x8, segLen)
	vE := make([]simd.I16x8, segLen)

	for _, c := range target {
		ri := alpha.Index(c)
		if ri < 0 {
			ri = alpha.Size()
		}
		prof := k.prof16[ri]

		vF := vZero
		vH := simd.ShiftLanesLeftI16(vHLoad[segLen-1], 1, 0)
		for s := 0; s < segLen; s++ {
			vH = simd.AddSatI16(vH, prof[s])
			vH = simd.MaxI16(vH, vE[s])
			vH = simd.MaxI16(vH, vF)
			vH = simd.MaxI16(vH, vZero) // the Smith-Waterman 0 floor
			vMax = simd.MaxI16(vMax, vH)
			vHStore[s] = vH

			vHGap := simd.SubSatI16(vH, vGapOE)
			vE[s] = simd.MaxI16(simd.SubSatI16(vE[s], vGapE), vHGap)
			vF = simd.MaxI16(simd.SubSatI16(vF, vGapE), vHGap)
			vH = vHLoad[s]
		}

		// Lazy-F correction, signed flavor. The shift fills with the int16
		// minimum (F of the row-0 boundary is -infinity); filling with 0
		// would keep the carry alive forever against negative thresholds.
		// Guard expiry escalates, as in the 8-bit kernel.
		vF = simd.ShiftLanesLeftI16(vF, 1, -32768)
		for s, guard := 0, segLen*(lanes16+1); simd.AnyGtI16(vF, simd.SubSatI16(vHStore[s], vGapOE)); guard-- {
			if guard <= 0 {
				return 0, false
			}
			nh := simd.MaxI16(vHStore[s], vF)
			if nh != vHStore[s] {
				vHStore[s] = nh
				vMax = simd.MaxI16(vMax, nh)
				vE[s] = simd.MaxI16(vE[s], simd.SubSatI16(nh, vGapOE))
			}
			vF = simd.SubSatI16(vF, vGapE)
			if s++; s == segLen {
				s = 0
				vF = simd.ShiftLanesLeftI16(vF, 1, -32768)
			}
		}

		vHLoad, vHStore = vHStore, vHLoad
	}
	best := int(simd.HMaxI16(vMax))
	if best >= k.ceiling16() {
		return 0, false
	}
	return best, true
}

// scoreLanesEmulated is the lane kernels on the emulated ISA, their
// oracle, at the width of vmax: 64 lanes transcribe lanes64 and 32 lanes
// lanesAVX2, the same instructions on the 128-bit quarters of a ZMM
// register or the halves of a YMM one, in the same order, so its harvest
// slots and maxima must equal the assembly's byte for byte. It has the
// native kernels' signature and runs on every host.
func scoreLanesEmulated(prof, cols, he, harvest, vmax []byte, bias, gapOE, gapE int) (slots int) {
	w := len(vmax)
	type reg [4]simd.U8x16 // a ZMM register; a YMM one is its first two quarters
	load := func(b []byte) (v reg) {
		for q := range w / 16 {
			copy(v[q][:], b[16*q:16*q+16])
		}
		return v
	}
	store := func(b []byte, v reg) {
		for q := range w / 16 {
			copy(b[16*q:16*q+16], v[q][:])
		}
	}
	op := func(f func(a, b simd.U8x16) simd.U8x16, a, b reg) (v reg) {
		for q := range w / 16 {
			v[q] = f(a[q], b[q])
		}
		return v
	}
	splat := func(x int) reg { s := simd.SplatU8(uint8(x)); return reg{s, s, s, s} }
	vBias, vGapOE, vGapE, vFlag := splat(bias), splat(gapOE), splat(gapE), splat(laneStart)
	vMax := load(vmax)
	m := len(prof) / laneRow
	for c := 0; c < len(cols); c += w {
		idx := load(cols[c:])
		var sel, keep reg // keep: 0xFF on every lane without the flag
		if w == 64 {
			keep = op(simd.GtU8, vFlag, op(simd.AndU8, idx, vFlag)) // VPTESTNMB into K1
		} else {
			sel = reg{simd.ShiftWordsLeftU8(idx[0], 3), simd.ShiftWordsLeftU8(idx[1], 3)}
			keep = op(simd.GtI8, vFlag, idx)
		}
		kept := true
		for q := range w / 16 {
			kept = kept && simd.MoveMaskU8(keep[q]) == 0xFFFF
		}
		if !kept {
			store(harvest[slots*w:], vMax)
			slots++
			vMax = op(simd.AndU8, vMax, keep)
		}
		var vDiag, vF reg
		for i := 0; i < m; i++ {
			var score reg
			if w == 64 {
				// The 32-byte row is loaded into the low half of a
				// register and permuted by the lanes' residues.
				var row [64]uint8
				copy(row[:], prof[i*laneRow:(i+1)*laneRow])
				for q := range score {
					score[q] = simd.PermuteU8(row, idx[q])
				}
			} else {
				// Each 16-byte half of the row is broadcast to both
				// register halves, shuffled by the lanes' residues and
				// blended on bit 4.
				row := load(prof[i*laneRow:])
				for q := range 2 {
					lo, hi := simd.ShuffleU8(row[0], idx[q]), simd.ShuffleU8(row[1], idx[q])
					score[q] = simd.BlendU8(lo, hi, sel[q])
				}
			}
			cell := he[2*i*w:]
			vH := op(simd.SubSatU8, op(simd.AddSatU8, vDiag, score), vBias)
			vE := op(simd.AndU8, load(cell[w:]), keep)
			vH = op(simd.MaxU8, vH, vE)
			vH = op(simd.MaxU8, vH, vF)
			vMax = op(simd.MaxU8, vMax, vH)
			vDiag = op(simd.AndU8, load(cell), keep)
			store(cell, vH)
			vHGap := op(simd.SubSatU8, vH, vGapOE)
			store(cell[w:], op(simd.MaxU8, op(simd.SubSatU8, vE, vGapE), vHGap))
			vF = op(simd.MaxU8, op(simd.SubSatU8, vF, vGapE), vHGap)
		}
	}
	store(vmax, vMax)
	return slots
}
