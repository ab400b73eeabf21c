package farrar

// The 64-lane kernel's file is a lanes file too: the lanes prefix keeps
// every lane width's declarations off the emulated ISA.

import (
	_ "repro/internal/simd" // want "native kernel file lanes64_amd64.go imports the emulated ISA"
)

// lanes64 stands in for the 64-lane kernel's Go declaration.
func lanes64(cols []byte) int { return len(cols) / 64 }
