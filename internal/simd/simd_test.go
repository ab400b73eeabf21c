package simd

import (
	"testing"
	"testing/quick"
)

func TestSplat(t *testing.T) {
	u := SplatU8(7)
	for i, v := range u {
		if v != 7 {
			t.Fatalf("SplatU8 lane %d = %d", i, v)
		}
	}
	s := SplatI16(-3)
	for i, v := range s {
		if v != -3 {
			t.Fatalf("SplatI16 lane %d = %d", i, v)
		}
	}
}

func TestAddSatU8Saturates(t *testing.T) {
	a := SplatU8(200)
	b := SplatU8(100)
	if got := AddSatU8(a, b); got != SplatU8(255) {
		t.Errorf("AddSatU8(200,100) = %v, want saturated 255", got)
	}
}

func TestSubSatU8Clamps(t *testing.T) {
	a := SplatU8(10)
	b := SplatU8(20)
	if got := SubSatU8(a, b); got != SplatU8(0) {
		t.Errorf("SubSatU8(10,20) = %v, want clamped 0", got)
	}
	if got := SubSatU8(b, a); got != SplatU8(10) {
		t.Errorf("SubSatU8(20,10) = %v, want 10", got)
	}
}

func TestAddSubSatU8Property(t *testing.T) {
	f := func(a, b U8x16) bool {
		add := AddSatU8(a, b)
		sub := SubSatU8(a, b)
		for i := range a {
			wantAdd := int(a[i]) + int(b[i])
			if wantAdd > 255 {
				wantAdd = 255
			}
			wantSub := int(a[i]) - int(b[i])
			if wantSub < 0 {
				wantSub = 0
			}
			if int(add[i]) != wantAdd || int(sub[i]) != wantSub {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMaxGtU8(t *testing.T) {
	f := func(a, b U8x16) bool {
		m := MaxU8(a, b)
		g := GtU8(a, b)
		for i := range a {
			if m[i] != max(a[i], b[i]) {
				return false
			}
			wantMask := uint8(0)
			if a[i] > b[i] {
				wantMask = 0xFF
			}
			if g[i] != wantMask {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMoveMaskU8(t *testing.T) {
	var a U8x16
	a[0], a[5], a[15] = 0x80, 0xFF, 0x81
	want := 1<<0 | 1<<5 | 1<<15
	if got := MoveMaskU8(a); got != want {
		t.Errorf("MoveMaskU8 = %#x, want %#x", got, want)
	}
}

func TestAnyGtU8(t *testing.T) {
	if AnyGtU8(SplatU8(1), SplatU8(1)) {
		t.Error("AnyGtU8(equal) = true")
	}
	a := SplatU8(1)
	a[9] = 3
	if !AnyGtU8(a, SplatU8(1)) {
		t.Error("AnyGtU8 missed lane 9")
	}
}

func TestShiftLanesLeftU8(t *testing.T) {
	var a U8x16
	for i := range a {
		a[i] = uint8(i + 1)
	}
	s := ShiftLanesLeftU8(a, 1)
	if s[0] != 0 {
		t.Errorf("lane 0 = %d, want 0 fill", s[0])
	}
	for i := 1; i < 16; i++ {
		if s[i] != a[i-1] {
			t.Errorf("lane %d = %d, want %d", i, s[i], a[i-1])
		}
	}
	if got := ShiftLanesLeftU8(a, 16); got != (U8x16{}) {
		t.Errorf("full shift = %v, want zero", got)
	}
}

func TestHMaxU8(t *testing.T) {
	var a U8x16
	a[3] = 200
	a[12] = 199
	if got := HMaxU8(a); got != 200 {
		t.Errorf("HMaxU8 = %d, want 200", got)
	}
}

func TestAddSatI16Saturates(t *testing.T) {
	if got := AddSatI16(SplatI16(30000), SplatI16(30000)); got != SplatI16(32767) {
		t.Errorf("AddSatI16 overflow = %v", got)
	}
	if got := AddSatI16(SplatI16(-30000), SplatI16(-30000)); got != SplatI16(-32768) {
		t.Errorf("AddSatI16 underflow = %v", got)
	}
}

func TestSubSatI16Saturates(t *testing.T) {
	if got := SubSatI16(SplatI16(-30000), SplatI16(10000)); got != SplatI16(-32768) {
		t.Errorf("SubSatI16 underflow = %v", got)
	}
}

func TestAddSubSatI16Property(t *testing.T) {
	f := func(a, b I16x8) bool {
		add := AddSatI16(a, b)
		sub := SubSatI16(a, b)
		for i := range a {
			if add[i] != satI16(int32(a[i])+int32(b[i])) {
				return false
			}
			if sub[i] != satI16(int32(a[i])-int32(b[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMaxGtI16(t *testing.T) {
	f := func(a, b I16x8) bool {
		m := MaxI16(a, b)
		g := GtI16(a, b)
		for i := range a {
			if m[i] != max(a[i], b[i]) {
				return false
			}
			want := int16(0)
			if a[i] > b[i] {
				want = -1
			}
			if g[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestShiftLanesLeftI16Fill(t *testing.T) {
	var a I16x8
	for i := range a {
		a[i] = int16(i + 1)
	}
	s := ShiftLanesLeftI16(a, 1, -999)
	if s[0] != -999 {
		t.Errorf("lane 0 = %d, want fill -999", s[0])
	}
	for i := 1; i < 8; i++ {
		if s[i] != a[i-1] {
			t.Errorf("lane %d = %d", i, s[i])
		}
	}
	if got := ShiftLanesLeftI16(a, 9, 5); got != SplatI16(5) {
		t.Errorf("overshift = %v, want all fill", got)
	}
}

func TestMoveMaskAnyGtI16(t *testing.T) {
	var a I16x8
	a[2] = -1
	if got := MoveMaskI16(a); got != 1<<2 {
		t.Errorf("MoveMaskI16 = %#x", got)
	}
	if AnyGtI16(SplatI16(0), SplatI16(0)) {
		t.Error("AnyGtI16(equal) = true")
	}
	b := SplatI16(0)
	b[7] = 1
	if !AnyGtI16(b, SplatI16(0)) {
		t.Error("AnyGtI16 missed lane 7")
	}
}

func TestHMaxI16(t *testing.T) {
	a := SplatI16(-5)
	a[6] = -2
	if got := HMaxI16(a); got != -2 {
		t.Errorf("HMaxI16 = %d, want -2", got)
	}
}

func TestShuffleU8(t *testing.T) {
	var a, idx U8x16
	for i := range a {
		a[i] = uint8(100 + i)
		idx[i] = uint8(15 - i)
	}
	idx[0] = 0x83     // top bit: zero
	idx[1] = 0x40 | 2 // bits 4-6 ignored
	idx[2] = 0x10 | 5
	got := ShuffleU8(a, idx)
	if got[0] != 0 || got[1] != 102 || got[2] != 105 || got[3] != 112 || got[15] != 100 {
		t.Errorf("ShuffleU8 = %v", got)
	}
}

func TestBlendAndGtI8(t *testing.T) {
	a, b := SplatU8(1), SplatU8(2)
	var mask U8x16
	mask[3], mask[7] = 0x80, 0x7F
	got := BlendU8(a, b, mask)
	for i, v := range got {
		want := uint8(1)
		if i == 3 {
			want = 2
		}
		if v != want {
			t.Fatalf("BlendU8 lane %d = %d, want %d", i, v, want)
		}
	}
	if got := AndU8(SplatU8(0x6C), SplatU8(0x3A)); got != SplatU8(0x28) {
		t.Errorf("AndU8 = %v", got)
	}
	x := SplatU8(0x40)
	var y U8x16
	y[0], y[1], y[2] = 0x40, 0x55, 0x90 // equal, greater, negative
	gt := GtI8(x, y)
	if gt[0] != 0 || gt[1] != 0 || gt[2] != 0xFF || gt[3] != 0xFF {
		t.Errorf("GtI8 = %v", gt)
	}
}

func TestShiftWordsLeftU8(t *testing.T) {
	var a U8x16
	a[0], a[1] = 0xF1, 0x12 // word 0x12F1 << 3 = 0x9788
	a[14], a[15] = 0x10, 0x00
	got := ShiftWordsLeftU8(a, 3)
	if got[0] != 0x88 || got[1] != 0x97 || got[14] != 0x80 || got[15] != 0 {
		t.Errorf("ShiftWordsLeftU8 = %v", got)
	}
}
