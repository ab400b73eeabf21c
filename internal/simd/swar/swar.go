// Package swar implements SIMD-within-a-register arithmetic: the
// saturating byte and word operations of Farrar's striped kernel computed
// on packed uint64 values with branch-free, loop-free bit tricks, at
// native Go speed.
//
// Where internal/simd emulates the SSE2 ISA faithfully — one Go loop
// iteration per lane, which is what makes it a trustworthy oracle and
// what makes it slow — this package packs 8 byte lanes (or 4 16-bit word
// lanes) into one uint64 and computes all lanes at once. Lane l occupies
// bits [8l, 8l+8) (or [16l, 16l+16)); "left" lane shifts therefore are
// plain word shifts toward higher significance.
//
// The lane invariant: every lane holds a value below 2^(w-1) — 0..127 in a
// byte lane, 0..32767 in a word lane — so each lane's top bit is a free
// guard bit. A plain 64-bit add of two such words cannot carry into the
// next lane, and (a|H)-b cannot borrow out of one, so the saturating
// operations need no cross-lane isolation: the guard bit of (a|H)-b is set
// exactly where a >= b, and that bit alone yields the select mask. Every
// operation takes invariant lanes to invariant lanes; the 7-bit (15-bit)
// saturating add clamps at 127 (32767) instead of wrapping into the guard.
// Callers keep their inputs inside the invariant — Farrar's kernel does,
// since its biased DP cells are small and non-negative and its profile
// entries and gap penalties are admitted only when they fit.
//
// Every function here is a pure expression over uint64: no loops, no
// branches, no imports of the emulated ISA. swcheck's purity analyzer
// enforces both properties mechanically, and the package tests prove the
// lane laws exhaustively against internal/simd.
package swar

// Lane geometry of the packed word.
const (
	Lanes8  = 8 // 8-bit lanes in a uint64
	Lanes16 = 4 // 16-bit lanes in a uint64
)

// Per-lane guard bits (hi) and low bits (lo).
const (
	hi8  = 0x8080808080808080
	lo8  = 0x0101010101010101
	hi16 = 0x8000800080008000
	lo16 = 0x0001000100010001
)

// Splat8 returns a word with every byte lane set to v (v <= 127 keeps the
// lane invariant).
func Splat8(v uint8) uint64 { return uint64(v) * lo8 }

// Splat16 returns a word with every 16-bit lane set to v (v <= 32767 keeps
// the lane invariant).
func Splat16(v uint16) uint64 { return uint64(v) * lo16 }

// ge7 returns d's per-lane mask 0x7F where the guard bit of d is set and 0
// elsewhere. Applied to d = (a|hi8)-b it is the mask of lanes where a >= b.
func ge7(d uint64) uint64 {
	m := d & hi8
	return m - m>>7
}

// AddSat7 is lane-wise addition on byte lanes clamped at 127: the sum of
// two invariant lanes is at most 254, so it fits its lane, and a set guard
// bit marks the lanes to clamp.
func AddSat7(a, b uint64) uint64 {
	s := a + b
	o := s & hi8
	return (s | (o - o>>7)) &^ hi8
}

// SubSat7 is lane-wise saturating subtraction on byte lanes: lanes where b
// exceeds a clamp to 0.
func SubSat7(a, b uint64) uint64 {
	d := (a | hi8) - b
	return d & ge7(d)
}

// Max7 is lane-wise maximum on byte lanes.
func Max7(a, b uint64) uint64 {
	return b ^ ((a ^ b) & ge7((a|hi8)-b))
}

// AnyGt7 reports whether any byte lane of a exceeds the matching lane of
// b — the termination test of the lazy-F correction loop.
func AnyGt7(a, b uint64) bool { return ((b|hi8)-a)&hi8 != hi8 }

// ShiftLane8 shifts every byte lane up by one (lane l to lane l+1), the
// striped layout's segment-boundary move; lane 0 fills with zero.
func ShiftLane8(a uint64) uint64 { return a << 8 }

// HMax7 returns the maximum byte lane value via a logarithmic fold; the
// zero lanes shifted in never win a maximum.
func HMax7(a uint64) uint8 {
	m := Max7(a, a>>32)
	m = Max7(m, m>>16)
	m = Max7(m, m>>8)
	return uint8(m)
}

// ge15 is ge7 for word lanes: 0x7FFF where the guard bit of d is set.
func ge15(d uint64) uint64 {
	m := d & hi16
	return m - m>>15
}

// AddSat15 is lane-wise addition on 16-bit lanes clamped at 32767.
func AddSat15(a, b uint64) uint64 {
	s := a + b
	o := s & hi16
	return (s | (o - o>>15)) &^ hi16
}

// SubSat15 is lane-wise saturating subtraction on 16-bit lanes.
func SubSat15(a, b uint64) uint64 {
	d := (a | hi16) - b
	return d & ge15(d)
}

// Max15 is lane-wise maximum on 16-bit lanes.
func Max15(a, b uint64) uint64 {
	return b ^ ((a ^ b) & ge15((a|hi16)-b))
}

// AnyGt15 reports whether any 16-bit lane of a exceeds the matching lane
// of b.
func AnyGt15(a, b uint64) bool { return ((b|hi16)-a)&hi16 != hi16 }

// ShiftLane16 shifts every 16-bit lane up by one; lane 0 fills with zero.
func ShiftLane16(a uint64) uint64 { return a << 16 }

// HMax15 returns the maximum 16-bit lane value.
func HMax15(a uint64) uint16 {
	m := Max15(a, a>>32)
	m = Max15(m, m>>16)
	return uint16(m)
}
