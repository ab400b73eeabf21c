package farrar

// The AVX2 tier's Go file is held to the same rule as swar*.go: its
// assembly transcribes the emulated ISA, so importing that ISA here would
// make the oracle its own subject. The CPUID probe that selects it is a
// native kernel file too.

import (
	_ "repro/internal/simd" // want "native kernel file avx8_amd64.go imports the emulated ISA"
)

// score8x32 stands in for the AVX2 kernel's Go declaration.
func score8x32(prof []byte) int { return len(prof) }
