package farrar

// This file is the amd64 8-bit tier: Farrar's striped kernel in Go
// assembly on 16 SSE2 byte lanes (sse8_amd64.s) or 32 AVX2 ones
// (avx8_amd64.s). The assembly transcribes ScoreU8 instruction for
// instruction — PADDUSB, PSUBUSB and PMAXUB for the emulated AddSatU8,
// SubSatU8 and MaxU8, a one-lane byte shift for ShiftLanesLeftU8, the same
// lazy-F loop and guard — and escalates at the same ceiling8, so it returns
// ScoreU8's (score, ok) pair on every input. SSE2 is the amd64 baseline
// (GOAMD64=v1) and the fallback; native8Lanes picks AVX2 from the CPUID
// probe (cpuid_amd64.go) and the query length.
//
// swcheck's purity analyzer bans importing the emulated internal/simd ISA
// from this file, as from swar*.go: the oracle must never be the substrate.

// native8 is the native tier's striped profile: one flat row of segLen
// lanes-byte segments per residue (byte l of segment s holds the biased
// score of query position l*segLen+s, padding lanes biased zero), plus the
// byte offset of each target byte's row, so the kernel looks a residue up
// with one load. Out-of-alphabet bytes map to the final all-minimum row.
type native8 struct {
	lanes  int // 16 runs sse8, 32 runs avx8
	segLen int
	prof   []byte
	rows   [256]uint32
}

// sse8 runs the kernel over target. cols points at three zeroed columns of
// segLen 16-byte segments (H load, H store, E). best is the horizontal
// maximum of every H cell, unbiased; done is false if the lazy-F guard
// expired.
//
//go:noescape
func sse8(prof *byte, rows *[256]uint32, target []byte, segLen int, cols *uint64, bias, gapOE, gapE int) (best int, done bool)

// buildNative8 packs the profile of the path native8Lanes picks.
func (k *Kernel) buildNative8() { k.packNative8(native8Lanes(hasAVX2, len(k.query))) }

// packNative8 packs the profile and residue table for a kernel on the
// given number of byte lanes.
func (k *Kernel) packNative8(lanes int) {
	m := len(k.query)
	n := &k.native
	n.lanes = lanes
	n.segLen = (m + lanes - 1) / lanes
	alpha := k.scheme.Matrix.Alphabet()
	rowBytes := n.segLen * lanes
	n.prof = make([]byte, (alpha.Size()+1)*rowBytes)
	for r := 0; r <= alpha.Size(); r++ {
		var row []int
		if r < alpha.Size() {
			row = k.scheme.Matrix.Row(r)
		}
		for s := 0; s < n.segLen; s++ {
			for l := 0; l < lanes; l++ {
				qi := l*n.segLen + s
				if qi >= m {
					continue // padding lanes hold biased zero so phantom rows never grow
				}
				sc := k.scheme.Matrix.Min() // invalid residues score worst, like the scalar reference
				if row != nil {
					sc = row[alpha.Index(k.query[qi])]
				}
				n.prof[r*rowBytes+s*lanes+l] = uint8(sc + k.bias)
			}
		}
	}
	for c := range n.rows {
		ri := alpha.Index(byte(c))
		if ri < 0 {
			ri = alpha.Size()
		}
		n.rows[c] = uint32(ri * rowBytes)
	}
}

// scoreNative8 is the 8-bit tier Kernel.Score tries first: the SSE2 or the
// AVX2 kernel, whichever the profile was packed for. ok is false when the
// score reached ceiling8, exactly as for ScoreU8.
func (k *Kernel) scoreNative8(target []byte) (sc int, ok bool) {
	if len(target) == 0 {
		return 0, true
	}
	if !k.tier8 {
		return 0, false
	}
	n := &k.native
	// lanes/8 words per segment; scratch carves the three columns from one
	// contiguous buffer, which is the layout both kernels expect.
	cols, _, _ := k.scratch(n.lanes / 8 * n.segLen)
	gapOE, gapE := k.scheme.Gap.Open+k.scheme.Gap.Extend, k.scheme.Gap.Extend
	best, done := 0, false
	if n.lanes == 32 {
		best, done = avx8(&n.prof[0], &n.rows, target, n.segLen, &cols[0], k.bias, gapOE, gapE)
	} else {
		best, done = sse8(&n.prof[0], &n.rows, target, n.segLen, &cols[0], k.bias, gapOE, gapE)
	}
	if !done || best >= k.ceiling8() {
		return 0, false // guard expired, or a saturating add may have clipped the true score
	}
	return best, true
}
