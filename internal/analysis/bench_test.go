package analysis

import (
	"io"
	"testing"
)

// BenchmarkSwcheckRepo times the full three-analyzer suite over the whole
// module — the price every `make lint` invocation and the CI lint job
// pay. Load + type-check dominates; the benchmark keeps that cost
// visible so analyzer additions that blow it up are caught in
// bench-smoke, not discovered as a slow CI queue.
func BenchmarkSwcheckRepo(b *testing.B) {
	root, err := FindModuleRoot(".")
	if err != nil {
		b.Fatalf("FindModuleRoot: %v", err)
	}
	for i := 0; i < b.N; i++ {
		n, err := Run(root, []string{"./..."}, All(), io.Discard)
		if err != nil {
			b.Fatalf("Run: %v", err)
		}
		if n != 0 {
			b.Fatalf("swcheck found %d finding(s); benchmark expects a clean tree", n)
		}
	}
}
