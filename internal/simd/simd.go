// Package simd emulates the 128-bit SSE2 integer vector operations that
// Farrar's striped Smith-Waterman uses on Intel CPUs.
//
// The paper's multicore slaves run "a modified version of the Farrar
// algorithm" on the SSE extensions of Intel i7 cores. Go has no
// intrinsics, so this package provides software implementations of the
// exact SSE2 semantics the kernel needs: 16-lane unsigned bytes (epu8) and
// 8-lane signed words (epi16) with saturating arithmetic, lane-wise max,
// compares, whole-register byte shifts and movemask. The emulated striped
// kernel in internal/farrar (ScoreU8, ScoreI16) is written against these,
// keeping the algorithm, data layout and instruction mix identical to the
// SSE2 original. It is the oracle of the production kernels: the amd64
// 8-bit tier transcribes ScoreU8 into SSE2 Go assembly instruction for
// instruction, and the portable SWAR kernels run the same recurrences on
// packed uint64 words.
package simd

// U8x16 models an XMM register holding 16 unsigned bytes.
type U8x16 [16]uint8

// I16x8 models an XMM register holding 8 signed 16-bit words.
type I16x8 [8]int16

// SplatU8 returns a vector with every lane set to v (_mm_set1_epi8).
func SplatU8(v uint8) U8x16 {
	var out U8x16
	for i := range out {
		out[i] = v
	}
	return out
}

// AddSatU8 is lane-wise unsigned saturating addition (_mm_adds_epu8).
func AddSatU8(a, b U8x16) U8x16 {
	var out U8x16
	for i := range out {
		s := uint16(a[i]) + uint16(b[i])
		if s > 255 {
			s = 255
		}
		out[i] = uint8(s)
	}
	return out
}

// SubSatU8 is lane-wise unsigned saturating subtraction (_mm_subs_epu8):
// results below zero clamp to 0.
func SubSatU8(a, b U8x16) U8x16 {
	var out U8x16
	for i := range out {
		if a[i] > b[i] {
			out[i] = a[i] - b[i]
		}
	}
	return out
}

// MaxU8 is lane-wise unsigned maximum (_mm_max_epu8).
func MaxU8(a, b U8x16) U8x16 {
	var out U8x16
	for i := range out {
		out[i] = max(a[i], b[i])
	}
	return out
}

// GtU8 returns a lane mask with 0xFF where a > b (emulating the
// subs+cmpeq idiom SSE2 needs for unsigned compare-greater).
func GtU8(a, b U8x16) U8x16 {
	var out U8x16
	for i := range out {
		if a[i] > b[i] {
			out[i] = 0xFF
		}
	}
	return out
}

// MoveMaskU8 collects the high bit of every byte lane (_mm_movemask_epi8).
func MoveMaskU8(a U8x16) int {
	m := 0
	for i := range a {
		if a[i]&0x80 != 0 {
			m |= 1 << i
		}
	}
	return m
}

// AnyGtU8 reports whether any lane of a exceeds the matching lane of b.
func AnyGtU8(a, b U8x16) bool { return MoveMaskU8(GtU8(a, b)) != 0 }

// ShiftLanesLeftU8 shifts the register left by n byte lanes, filling vacated
// low lanes with zero (_mm_slli_si128). In the striped layout this moves
// values from query segment s to segment s+1.
func ShiftLanesLeftU8(a U8x16, n int) U8x16 {
	var out U8x16
	for i := n; i < 16; i++ {
		out[i] = a[i-n]
	}
	return out
}

// HMaxU8 returns the maximum lane value.
func HMaxU8(a U8x16) uint8 {
	m := a[0]
	for _, v := range a[1:] {
		m = max(m, v)
	}
	return m
}

// SplatI16 returns a vector with every lane set to v (_mm_set1_epi16).
func SplatI16(v int16) I16x8 {
	var out I16x8
	for i := range out {
		out[i] = v
	}
	return out
}

// AddSatI16 is lane-wise signed saturating addition (_mm_adds_epi16).
func AddSatI16(a, b I16x8) I16x8 {
	var out I16x8
	for i := range out {
		out[i] = satI16(int32(a[i]) + int32(b[i]))
	}
	return out
}

// SubSatI16 is lane-wise signed saturating subtraction (_mm_subs_epi16).
func SubSatI16(a, b I16x8) I16x8 {
	var out I16x8
	for i := range out {
		out[i] = satI16(int32(a[i]) - int32(b[i]))
	}
	return out
}

func satI16(v int32) int16 {
	if v > 32767 {
		return 32767
	}
	if v < -32768 {
		return -32768
	}
	return int16(v)
}

// MaxI16 is lane-wise signed maximum (_mm_max_epi16).
func MaxI16(a, b I16x8) I16x8 {
	var out I16x8
	for i := range out {
		out[i] = max(a[i], b[i])
	}
	return out
}

// GtI16 returns a lane mask with all bits set where a > b
// (_mm_cmpgt_epi16).
func GtI16(a, b I16x8) I16x8 {
	var out I16x8
	for i := range out {
		if a[i] > b[i] {
			out[i] = -1
		}
	}
	return out
}

// MoveMaskI16 collects the sign bit of every 16-bit lane.
func MoveMaskI16(a I16x8) int {
	m := 0
	for i := range a {
		if a[i] < 0 {
			m |= 1 << i
		}
	}
	return m
}

// AnyGtI16 reports whether any lane of a exceeds the matching lane of b.
func AnyGtI16(a, b I16x8) bool { return MoveMaskI16(GtI16(a, b)) != 0 }

// ShiftLanesLeftI16 shifts the register left by n 16-bit lanes, filling
// vacated low lanes with fill (the striped kernel inserts the boundary
// value, not zero, because signed scores may legitimately be negative).
func ShiftLanesLeftI16(a I16x8, n int, fill int16) I16x8 {
	var out I16x8
	for i := 0; i < n && i < 8; i++ {
		out[i] = fill
	}
	for i := n; i < 8; i++ {
		out[i] = a[i-n]
	}
	return out
}

// HMaxI16 returns the maximum lane value.
func HMaxI16(a I16x8) int16 {
	m := a[0]
	for _, v := range a[1:] {
		m = max(m, v)
	}
	return m
}

// The byte shuffle, blend, mask, word-shift and permute operations below
// are the inter-sequence lane kernels' score gathers and lane resets
// (farrar.scoreLanesEmulated): one database sequence per byte lane, so
// the score of each lane's residue is looked up in the query residue's
// matrix row rather than loaded from a striped profile. PermuteU8 is an
// AVX-512 VBMI instruction, the 64-lane kernel's gather; the others are
// the 32-lane kernel's SSSE3/SSE4.1/AVX2 ones on 16-lane halves.

// ShuffleU8 picks a byte of a for every lane of idx (_mm_shuffle_epi8):
// lane i gets a[idx[i]&15], or 0 when idx[i] has its top bit set. Bits
// 4-6 of an index are ignored.
func ShuffleU8(a, idx U8x16) U8x16 {
	var out U8x16
	for i, x := range idx {
		if x&0x80 == 0 {
			out[i] = a[x&15]
		}
	}
	return out
}

// BlendU8 takes lane i from b where mask[i] has its top bit set and from
// a elsewhere (_mm_blendv_epi8).
func BlendU8(a, b, mask U8x16) U8x16 {
	out := a
	for i, m := range mask {
		if m&0x80 != 0 {
			out[i] = b[i]
		}
	}
	return out
}

// AndU8 is the bitwise and of two registers (_mm_and_si128).
func AndU8(a, b U8x16) U8x16 {
	var out U8x16
	for i := range out {
		out[i] = a[i] & b[i]
	}
	return out
}

// GtI8 returns a lane mask with 0xFF where a > b as signed bytes
// (_mm_cmpgt_epi8).
func GtI8(a, b U8x16) U8x16 {
	var out U8x16
	for i := range out {
		if int8(a[i]) > int8(b[i]) {
			out[i] = 0xFF
		}
	}
	return out
}

// ShiftWordsLeftU8 shifts each little-endian 16-bit word of the register
// left by n bits (_mm_slli_epi16): bits cross from a word's low byte into
// its high byte, never between words.
func ShiftWordsLeftU8(a U8x16, n int) U8x16 {
	var out U8x16
	for i := 0; i < 16; i += 2 {
		w := (uint16(a[i]) | uint16(a[i+1])<<8) << n
		out[i], out[i+1] = uint8(w), uint8(w>>8)
	}
	return out
}

// PermuteU8 picks a byte of the 64-byte table for every lane of idx
// (_mm512_permutexvar_epi8, AVX-512 VBMI's VPERMB): lane i gets
// table[idx[i]&63]; bits 6-7 of an index are ignored. It is the gather of
// the 64-lane kernel, one ZMM register's worth of lanes at a time: four
// calls on the four 16-lane quarters of idx model one instruction.
func PermuteU8(table [64]uint8, idx U8x16) U8x16 {
	var out U8x16
	for i, x := range idx {
		out[i] = table[x&63]
	}
	return out
}
