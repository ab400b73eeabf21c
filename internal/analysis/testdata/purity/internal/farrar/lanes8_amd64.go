package farrar

// The inter-sequence lane kernel's files are native kernel files too: its
// emulated oracle lives beside the striped one, never under the assembly.

import (
	_ "repro/internal/simd" // want "native kernel file lanes8_amd64.go imports the emulated ISA"
)

// scoreLanes stands in for the lane kernel's Go declaration.
func scoreLanes(cols []byte) int { return len(cols) }
