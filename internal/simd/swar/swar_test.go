package swar

import (
	"math/rand"
	"testing"

	"repro/internal/simd"
)

// unpack8 extracts byte lane l.
func unpack8(w uint64, l int) uint8 { return uint8(w >> (8 * l)) }

// pack8 builds a word from 8 byte lanes.
func pack8(lanes [Lanes8]uint8) uint64 {
	var w uint64
	for l, v := range lanes {
		w |= uint64(v) << (8 * l)
	}
	return w
}

// unpack16 extracts 16-bit lane l.
func unpack16(w uint64, l int) uint16 { return uint16(w >> (16 * l)) }

func pack16(lanes [Lanes16]uint16) uint64 {
	var w uint64
	for l, v := range lanes {
		w |= uint64(v) << (16 * l)
	}
	return w
}

// check8 compares the guard-bit byte ops on one pair of invariant words
// against the emulated SSE2 ops lane by lane (the add clamped to 127, the
// guard-bit ceiling), and asserts that no output lane sets its guard bit.
func check8(t *testing.T, la, lb [Lanes8]uint8) {
	t.Helper()
	var va, vb simd.U8x16
	copy(va[:], la[:])
	copy(vb[:], lb[:])
	eAdd, eSub, eMax := simd.AddSatU8(va, vb), simd.SubSatU8(va, vb), simd.MaxU8(va, vb)
	wa, wb := pack8(la), pack8(lb)
	add, sub, mx := AddSat7(wa, wb), SubSat7(wa, wb), Max7(wa, wb)
	if (add|sub|mx)&hi8 != 0 {
		t.Fatalf("a=%v b=%v: an output lane set its guard bit: add %#x sub %#x max %#x", la, lb, add, sub, mx)
	}
	for l := 0; l < Lanes8; l++ {
		if got, want := unpack8(add, l), min(eAdd[l], 127); got != want {
			t.Fatalf("AddSat7(%d,%d) lane %d = %d, want %d", la[l], lb[l], l, got, want)
		}
		if got := unpack8(sub, l); got != eSub[l] {
			t.Fatalf("SubSat7(%d,%d) lane %d = %d, want %d", la[l], lb[l], l, got, eSub[l])
		}
		if got := unpack8(mx, l); got != eMax[l] {
			t.Fatalf("Max7(%d,%d) lane %d = %d, want %d", la[l], lb[l], l, got, eMax[l])
		}
	}
	// The emulated register's upper 8 lanes stay zero on both sides.
	if got, want := AnyGt7(wa, wb), simd.AnyGtU8(va, vb); got != want {
		t.Fatalf("AnyGt7(%v,%v) = %v, emulated %v", la, lb, got, want)
	}
}

// TestExhaustive8BitLanePairs drives every (a, b) pair in 0..127 through
// every lane position: lane l holds (a+37l, b+91l) mod 128, a bijection of
// the pair space per lane, so each position sees every pair while its
// neighbours hold different values — a carry or borrow leaking across a
// lane boundary in either direction corrupts a checked lane.
func TestExhaustive8BitLanePairs(t *testing.T) {
	for a := 0; a < 128; a++ {
		for b := 0; b < 128; b++ {
			var la, lb [Lanes8]uint8
			for l := 0; l < Lanes8; l++ {
				la[l] = uint8((a + 37*l) % 128)
				lb[l] = uint8((b + 91*l) % 128)
			}
			check8(t, la, lb)
		}
	}
}

// TestAgainstEmulatedISA8 cross-checks the byte ops against the emulated
// SSE2 ISA on random words with independent lanes, plus the lane shift.
func TestAgainstEmulatedISA8(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 20000; iter++ {
		var la, lb [Lanes8]uint8
		var va simd.U8x16
		for l := 0; l < Lanes8; l++ {
			la[l] = uint8(rng.Intn(128))
			lb[l] = uint8(rng.Intn(128))
			va[l] = la[l]
		}
		check8(t, la, lb)
		eSh, sSh := simd.ShiftLanesLeftU8(va, 1), ShiftLane8(pack8(la))
		for l := 0; l < Lanes8; l++ {
			if unpack8(sSh, l) != eSh[l] {
				t.Fatalf("ShiftLane8 lane %d = %d, emulated %d", l, unpack8(sSh, l), eSh[l])
			}
		}
	}
}

// TestHMax8 checks the byte-lane horizontal fold on crafted and random
// invariant words.
func TestHMax8(t *testing.T) {
	cases := [][Lanes8]uint8{
		{}, {127}, {0, 0, 0, 0, 0, 0, 0, 127}, {1, 2, 3, 4, 5, 6, 7, 8},
		{8, 7, 6, 5, 4, 3, 2, 1}, {0x40, 0x7F, 0x3F, 1, 0, 0x7E, 3, 9},
	}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 5000; i++ {
		var c [Lanes8]uint8
		for l := range c {
			c[l] = uint8(rng.Intn(128))
		}
		cases = append(cases, c)
	}
	for _, c := range cases {
		want := uint8(0)
		for _, v := range c {
			want = max(want, v)
		}
		if got := HMax7(pack8(c)); got != want {
			t.Fatalf("HMax7(%v) = %d, want %d", c, got, want)
		}
	}
}

// TestProperty16BitLanes drives the word ops through boundary values and a
// dense random sample per lane (the full 2^30 cross product is out of
// budget) against the emulated signed 16-bit ISA, which on 0..32767
// saturates at exactly the guard-bit ceiling; its subtraction is clamped
// at the unsigned floor 0.
func TestProperty16BitLanes(t *testing.T) {
	boundary := []uint16{0, 1, 2, 0x3FFF, 0x4000, 0x4001, 0x7FFE, 0x7FFF}
	rng := rand.New(rand.NewSource(9))
	check := func(la, lb [Lanes16]uint16) {
		t.Helper()
		var va, vb simd.I16x8
		for l := 0; l < Lanes16; l++ {
			va[l], vb[l] = int16(la[l]), int16(lb[l])
		}
		eAdd, eSub, eMax := simd.AddSatI16(va, vb), simd.SubSatI16(va, vb), simd.MaxI16(va, vb)
		wa, wb := pack16(la), pack16(lb)
		add, sub, mx := AddSat15(wa, wb), SubSat15(wa, wb), Max15(wa, wb)
		if (add|sub|mx)&hi16 != 0 {
			t.Fatalf("a=%v b=%v: an output lane set its guard bit", la, lb)
		}
		for l := 0; l < Lanes16; l++ {
			if got := unpack16(add, l); got != uint16(eAdd[l]) {
				t.Fatalf("AddSat15(%d,%d) lane %d = %d, want %d", la[l], lb[l], l, got, eAdd[l])
			}
			if got := unpack16(sub, l); got != uint16(max(eSub[l], 0)) {
				t.Fatalf("SubSat15(%d,%d) lane %d = %d, want %d", la[l], lb[l], l, got, max(eSub[l], 0))
			}
			if got := unpack16(mx, l); got != uint16(eMax[l]) {
				t.Fatalf("Max15(%d,%d) lane %d = %d, want %d", la[l], lb[l], l, got, eMax[l])
			}
		}
		if got, want := AnyGt15(wa, wb), simd.AnyGtI16(va, vb); got != want {
			t.Fatalf("AnyGt15(%v,%v) = %v, emulated %v", la, lb, got, want)
		}
	}
	// Every boundary pair in every lane position.
	for _, x := range boundary {
		for _, y := range boundary {
			check([Lanes16]uint16{x, y, x, y}, [Lanes16]uint16{y, x, y, x})
			check([Lanes16]uint16{x, x, x, x}, [Lanes16]uint16{y, y, y, y})
		}
	}
	for iter := 0; iter < 100000; iter++ {
		var la, lb [Lanes16]uint16
		for l := 0; l < Lanes16; l++ {
			la[l] = uint16(rng.Intn(1 << 15))
			lb[l] = uint16(rng.Intn(1 << 15))
		}
		check(la, lb)
	}
}

// TestHMaxAndShift16 checks the 16-bit fold and lane shift.
func TestHMaxAndShift16(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for iter := 0; iter < 5000; iter++ {
		var c [Lanes16]uint16
		for l := range c {
			c[l] = uint16(rng.Intn(1 << 15))
		}
		w := pack16(c)
		want := uint16(0)
		for _, v := range c {
			want = max(want, v)
		}
		if got := HMax15(w); got != want {
			t.Fatalf("HMax15(%v) = %d, want %d", c, got, want)
		}
		sh := ShiftLane16(w)
		if unpack16(sh, 0) != 0 {
			t.Fatalf("ShiftLane16 lane 0 = %d, want 0", unpack16(sh, 0))
		}
		for l := 1; l < Lanes16; l++ {
			if unpack16(sh, l) != c[l-1] {
				t.Fatalf("ShiftLane16 lane %d = %d, want %d", l, unpack16(sh, l), c[l-1])
			}
		}
	}
}

// TestSplat fills every lane.
func TestSplat(t *testing.T) {
	for _, v := range []uint8{0, 1, 0x7F, 0x80, 0xFF} {
		w := Splat8(v)
		for l := 0; l < Lanes8; l++ {
			if unpack8(w, l) != v {
				t.Fatalf("Splat8(%d) lane %d = %d", v, l, unpack8(w, l))
			}
		}
	}
	for _, v := range []uint16{0, 1, 0x7FFF, 0x8000, 0xFFFF} {
		w := Splat16(v)
		for l := 0; l < Lanes16; l++ {
			if unpack16(w, l) != v {
				t.Fatalf("Splat16(%d) lane %d = %d", v, l, unpack16(w, l))
			}
		}
	}
}
