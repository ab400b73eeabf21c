package analysis

import "testing"

// runGolden loads one testdata fixture package, runs a single analyzer
// over it, and fails on every mismatch between the diagnostics and the
// fixture's // want comments — in both directions, so each golden test
// proves the analyzer catches its violations AND stays quiet on the
// clean idioms.
func runGolden(t *testing.T, dir string, a *Analyzer) {
	t.Helper()
	mismatches, err := CheckGolden(dir, []*Analyzer{a})
	if err != nil {
		t.Fatalf("CheckGolden(%s): %v", dir, err)
	}
	for _, m := range mismatches {
		t.Error(m)
	}
}

func TestPurityGolden(t *testing.T) {
	runGolden(t, "testdata/purity/internal/sched", PurityAnalyzer)
}

func TestPurityGoldenSim(t *testing.T) {
	runGolden(t, "testdata/purity/internal/sim", PurityAnalyzer)
}

func TestPurityGoldenSwar(t *testing.T) {
	runGolden(t, "testdata/purity/internal/simd/swar", PurityAnalyzer)
}

func TestPurityGoldenFarrar(t *testing.T) {
	runGolden(t, "testdata/purity/internal/farrar", PurityAnalyzer)
}

func TestExhaustiveGolden(t *testing.T) {
	runGolden(t, "testdata/exhaustive", ExhaustiveAnalyzer)
}

func TestMetricNameGolden(t *testing.T) {
	runGolden(t, "testdata/metricname", MetricNameAnalyzer)
}
