package farrar

// The 16-bit AVX2 rung's Go file is held to the rule of avx8_amd64.go:
// its assembly renders the same recurrences on word lanes, and ScoreI16 on
// the emulated ISA is its oracle, so importing that ISA here would make
// the oracle its own subject.

import (
	_ "repro/internal/simd" // want "native kernel file avx16_amd64.go imports the emulated ISA"
)

// score16x16 stands in for the 16-bit AVX2 kernel's Go declaration.
func score16x16(prof []byte) int { return len(prof) }
