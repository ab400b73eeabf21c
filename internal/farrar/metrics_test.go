package farrar

import (
	"strings"
	"testing"

	"repro/internal/metrics"
)

func TestMetricsObserve(t *testing.T) {
	r := metrics.NewRegistry()
	m := NewMetrics(r)
	m.Observe(Stats{Scored8: 5, Fallback16: 2})
	m.Observe(Stats{Scored8: 1, FallbackSW: 3})

	if got := m.Fallback.With(Tier8).Value(); got != 6 {
		t.Errorf("8bit counter = %v, want 6", got)
	}
	if got := m.Fallback.With(Tier16).Value(); got != 2 {
		t.Errorf("16bit counter = %v, want 2", got)
	}
	if got := m.Fallback.With(TierScalar).Value(); got != 3 {
		t.Errorf("scalar counter = %v, want 3", got)
	}

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`farrar_fallback_total{tier="8bit"} 6`,
		`farrar_fallback_total{tier="16bit"} 2`,
		`farrar_fallback_total{tier="scalar"} 3`,
		`farrar_isa_info{isa="` + ISA() + `"} 1`,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, sb.String())
		}
	}
}

// The uninstrumented bundle drives every handle it holds without panicking.
func TestMetricsNilSafe(t *testing.T) {
	NewMetrics(nil).Observe(Stats{Scored8: 1, Fallback16: 1, FallbackSW: 1})
}
