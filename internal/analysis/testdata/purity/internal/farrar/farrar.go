// Package farrar is the kernel-side half of the SWAR-purity golden
// fixture. The dispatch core may import the emulated ISA — it IS the
// oracle implementation — so this file must stay diagnostic-free.
package farrar

import (
	_ "repro/internal/simd" // the oracle path: allowed outside swar*.go and sse*.go
)

// Dispatch stands in for the real kernel's impl switch.
func Dispatch(swar bool) string {
	if swar {
		return "swar"
	}
	return "emulated"
}
