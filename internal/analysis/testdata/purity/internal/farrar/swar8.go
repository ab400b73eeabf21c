package farrar

// A swar*.go kernel file must stay off the emulated ISA: its substrate is
// the packed-word primitives, and reaching for internal/simd here would
// silently reintroduce the per-lane-loop tax the SWAR tier removes.

import (
	_ "repro/internal/simd"      // want "native kernel file swar8.go imports the emulated ISA"
	_ "repro/internal/simd/swar" // the packed-word primitives: allowed
)

// kernel8 stands in for the packed 8-bit tier; loops are fine in kernel
// files (only the primitives package is loop-free).
func kernel8(prof []uint64) (best uint64) {
	for _, w := range prof {
		best |= w
	}
	return best
}
