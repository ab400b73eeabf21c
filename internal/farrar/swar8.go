package farrar

import "repro/internal/simd/swar"

// This file is the portable 8-bit tier (the native one off amd64):
// Farrar's striped kernel on 8 byte lanes packed in a uint64, computed
// with the guard-bit primitives of internal/simd/swar (every lane in
// 0..127). The recurrences are identical to ScoreU8 (the emulated oracle),
// and both escalate at ceiling8, so the two return identical (score, ok)
// pairs (see the package doc).
//
// swcheck's purity analyzer bans importing the emulated internal/simd ISA
// from this file: the hot path must stay on the packed-word bit tricks.

// buildSwarProfile8 packs the striped biased byte profile, one row of
// segLen words per residue: byte lane l of swarProf8[r*segLen+s] holds
// score(query[l*segLen+s], r) + bias.
func (k *Kernel) buildSwarProfile8() {
	m := len(k.query)
	k.swarSegLen8 = (m + swar.Lanes8 - 1) / swar.Lanes8
	alpha := k.scheme.Matrix.Alphabet()
	k.swarProf8 = make([]uint64, (alpha.Size()+1)*k.swarSegLen8)
	qidx := k.queryIndex()
	for r := 0; r <= alpha.Size(); r++ {
		segs := k.swarProf8[r*k.swarSegLen8:][:k.swarSegLen8]
		var row []int
		if r < alpha.Size() {
			row = k.scheme.Matrix.Row(r)
		}
		for s := 0; s < k.swarSegLen8; s++ {
			var v uint64
			for l := 0; l < swar.Lanes8; l++ {
				qi := l*k.swarSegLen8 + s
				if qi >= m {
					continue // padding lanes hold biased zero so phantom rows never grow
				}
				sc := k.scheme.Matrix.Min() // invalid residues score worst, like the scalar reference
				if row != nil {
					sc = row[qidx[qi]]
				}
				v |= uint64(uint8(sc+k.bias)) << (8 * l)
			}
			segs[s] = v
		}
	}
}

// ScoreSWAR8 runs the packed-word 8-bit saturating kernel. ok is false
// when the score may have been clipped at the tier's 127-bias ceiling.
func (k *Kernel) ScoreSWAR8(target []byte) (sc int, ok bool) {
	if len(target) == 0 {
		return 0, true
	}
	if !k.tier8 {
		return 0, false
	}
	if k.swarProf8 == nil {
		k.buildSwarProfile8()
	}
	segLen := k.swarSegLen8
	alpha := k.scheme.Matrix.Alphabet()
	vBias := swar.Splat8(uint8(k.bias))
	vGapOE := swar.Splat8(uint8(k.scheme.Gap.Open + k.scheme.Gap.Extend))
	vGapE := swar.Splat8(uint8(k.scheme.Gap.Extend))
	var vMax uint64

	vHLoad, vHStore, vE := k.scratch(segLen)

	for _, c := range target {
		ri := alpha.Index(c)
		if ri < 0 {
			ri = alpha.Size() // all-minimum row for out-of-alphabet residues
		}
		prof := k.swarProf8[ri*segLen:][:segLen] // len hint: elides bounds checks below

		var vF uint64
		// H of query position l*segLen-1 feeds lane l segment 0: shift the
		// last stored segment up one lane (zero fill = H[0][j-1] = 0).
		vH := swar.ShiftLane8(vHLoad[segLen-1])
		for s := 0; s < segLen; s++ {
			vH = swar.SubSat7(swar.AddSat7(vH, prof[s]), vBias)
			vH = swar.Max7(vH, vE[s])
			vH = swar.Max7(vH, vF)
			vMax = swar.Max7(vMax, vH)
			vHStore[s] = vH

			vHGap := swar.SubSat7(vH, vGapOE)
			vE[s] = swar.Max7(swar.SubSat7(vE[s], vGapE), vHGap)
			vF = swar.Max7(swar.SubSat7(vF, vGapE), vHGap)
			vH = vHLoad[s]
		}

		// Lazy-F correction, packed form. The carry decays by gapE >= 1 per
		// step and the lane shift retires it after Lanes8 sweeps, so the
		// loop terminates naturally; the guard is defensive and its expiry
		// escalates to the 16-bit tier rather than returning a score whose
		// correction pass did not finish.
		vF = swar.ShiftLane8(vF)
		for s, guard := 0, segLen*(swar.Lanes8+1); swar.AnyGt7(vF, swar.SubSat7(vHStore[s], vGapOE)); guard-- {
			if guard <= 0 {
				return 0, false
			}
			nh := swar.Max7(vHStore[s], vF)
			if nh != vHStore[s] {
				vHStore[s] = nh
				vMax = swar.Max7(vMax, nh)
				// A raised H can feed a horizontal gap in the next column.
				vE[s] = swar.Max7(vE[s], swar.SubSat7(nh, vGapOE))
			}
			vF = swar.SubSat7(vF, vGapE)
			if s++; s == segLen {
				s = 0
				vF = swar.ShiftLane8(vF)
			}
		}

		vHLoad, vHStore = vHStore, vHLoad
	}
	best := int(swar.HMax7(vMax))
	if best >= k.ceiling8() {
		return 0, false // a saturating add may have clipped the true score
	}
	return best, true
}
