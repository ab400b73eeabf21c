package farrar

// The AVX2 tier's Go file and the CPUID probe that selects it are native
// kernel files too: the 32-lane assembly transcribes the same emulated
// ISA as the SSE2 tier.

import (
	_ "repro/internal/simd" // want "native kernel file avx8_amd64.go imports the emulated ISA"
)

// score8x32 stands in for the AVX2 kernel's Go declaration.
func score8x32(prof []byte) int { return len(prof) }
