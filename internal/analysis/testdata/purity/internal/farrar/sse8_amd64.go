package farrar

// The SSE2 tier's Go file is held to the same rule as swar*.go: its
// assembly transcribes the emulated ISA, so importing that ISA here would
// make the oracle its own subject.

import (
	_ "repro/internal/simd" // want "native kernel file sse8_amd64.go imports the emulated ISA"
)

// score8 stands in for the assembly kernel's Go declaration.
func score8(prof []byte) int { return len(prof) }
