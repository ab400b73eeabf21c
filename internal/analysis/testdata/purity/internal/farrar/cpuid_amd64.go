package farrar

import (
	_ "repro/internal/simd" // want "native kernel file cpuid_amd64.go imports the emulated ISA"
)

// hasWide stands in for the probe's result.
var hasWide = false
