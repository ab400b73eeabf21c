package farrar

import "repro/internal/simd/swar"

// This file is the native-speed 16-bit fallback tier: 4 word lanes packed
// in a uint64, on the same guard-bit primitives as the 8-bit tier (every
// lane value in 0..32767). Unlike the emulated ScoreI16 — which
// transcribes the SSE original's *signed* 16-bit arithmetic — this kernel
// keeps Farrar's biased *unsigned* formulation from the 8-bit tier,
// because the unsigned saturating bit tricks are what a packed word
// computes cheaply. The two renderings agree wherever both certify a
// score:
//
//   - Unsigned E/F hold max(signed E/F, 0); a clamped-to-zero gap state
//     can never win a max against H >= 0, so H is identical.
//   - Both escalate at ceiling16, below which neither clips (see the
//     package doc), so the two return identical (score, ok) pairs.

// buildSwarProfile16 packs the striped biased word profile: 16-bit lane l
// of swarProf16[r*segLen+s] holds score(query[l*segLen+s], r) + bias.
func (k *Kernel) buildSwarProfile16() {
	m := len(k.query)
	k.swarSegLen16 = (m + swar.Lanes16 - 1) / swar.Lanes16
	alpha := k.scheme.Matrix.Alphabet()
	k.swarProf16 = make([]uint64, (alpha.Size()+1)*k.swarSegLen16)
	for r := 0; r <= alpha.Size(); r++ {
		segs := k.swarProf16[r*k.swarSegLen16:][:k.swarSegLen16]
		var row []int
		if r < alpha.Size() {
			row = k.scheme.Matrix.Row(r)
		}
		for s := 0; s < k.swarSegLen16; s++ {
			var v uint64
			for l := 0; l < swar.Lanes16; l++ {
				qi := l*k.swarSegLen16 + s
				if qi >= m {
					continue // padding lanes hold biased zero so phantom rows never grow
				}
				sc := k.scheme.Matrix.Min()
				if row != nil {
					sc = row[alpha.Index(k.query[qi])]
				}
				v |= uint64(uint16(sc+k.bias)) << (16 * l)
			}
			segs[s] = v
		}
	}
}

// ScoreSWAR16 runs the packed-word 16-bit kernel. ok is false when the
// score reached the tier's 32767-bias ceiling.
func (k *Kernel) ScoreSWAR16(target []byte) (sc int, ok bool) {
	if len(target) == 0 {
		return 0, true
	}
	if !k.tier16 {
		return 0, false
	}
	if k.swarProf16 == nil {
		k.buildSwarProfile16()
	}
	segLen := k.swarSegLen16
	alpha := k.scheme.Matrix.Alphabet()
	vBias := swar.Splat16(uint16(k.bias))
	vGapOE := swar.Splat16(uint16(k.scheme.Gap.Open + k.scheme.Gap.Extend))
	vGapE := swar.Splat16(uint16(k.scheme.Gap.Extend))
	var vMax uint64

	vHLoad, vHStore, vE := k.scratch(segLen)

	for _, c := range target {
		ri := alpha.Index(c)
		if ri < 0 {
			ri = alpha.Size()
		}
		prof := k.swarProf16[ri*segLen:][:segLen] // len hint: elides bounds checks below

		var vF uint64
		vH := swar.ShiftLane16(vHLoad[segLen-1])
		for s := 0; s < segLen; s++ {
			vH = swar.SubSat15(swar.AddSat15(vH, prof[s]), vBias)
			vH = swar.Max15(vH, vE[s])
			vH = swar.Max15(vH, vF)
			vMax = swar.Max15(vMax, vH)
			vHStore[s] = vH

			vHGap := swar.SubSat15(vH, vGapOE)
			vE[s] = swar.Max15(swar.SubSat15(vE[s], vGapE), vHGap)
			vF = swar.Max15(swar.SubSat15(vF, vGapE), vHGap)
			vH = vHLoad[s]
		}

		// Lazy-F correction. The unsigned rendering shifts zeros in (F at
		// the row-0 boundary clamps to the zero floor, not -infinity), and
		// a zero lane can never beat a saturating-subtracted threshold by
		// strict greater-than, so the carry still retires after Lanes16
		// sweeps. Guard expiry escalates, as everywhere else.
		vF = swar.ShiftLane16(vF)
		for s, guard := 0, segLen*(swar.Lanes16+1); swar.AnyGt15(vF, swar.SubSat15(vHStore[s], vGapOE)); guard-- {
			if guard <= 0 {
				return 0, false
			}
			nh := swar.Max15(vHStore[s], vF)
			if nh != vHStore[s] {
				vHStore[s] = nh
				vMax = swar.Max15(vMax, nh)
				vE[s] = swar.Max15(vE[s], swar.SubSat15(nh, vGapOE))
			}
			vF = swar.SubSat15(vF, vGapE)
			if s++; s == segLen {
				s = 0
				vF = swar.ShiftLane16(vF)
			}
		}

		vHLoad, vHStore = vHStore, vHLoad
	}
	best := int(swar.HMax15(vMax))
	if best >= k.ceiling16() {
		return 0, false
	}
	return best, true
}
