package farrar

import "repro/internal/metrics"

// Tier label values of the farrar_fallback_total counter, one per rung of
// the 8 -> 16 -> scalar overflow ladder.
const (
	Tier8      = "8bit"
	Tier16     = "16bit"
	TierScalar = "scalar"
)

// Metrics is the kernel-side instrumentation bundle. Kernels themselves
// stay metrics-free (they are built per worker goroutine and per query);
// callers aggregate Stats across kernels and publish the totals here.
// NewMetrics(nil) is the uninstrumented bundle engines start with.
type Metrics struct {
	// Fallback counts sequences by the ladder tier that resolved them,
	// labelled tier="8bit" | "16bit" | "scalar".
	Fallback *metrics.CounterVec
}

// NewMetrics registers (or re-attaches to) the kernel families on r.
func NewMetrics(r *metrics.Registry) *Metrics {
	return &Metrics{
		Fallback: r.CounterVec("farrar_fallback_total",
			"Sequences resolved per kernel tier of the 8/16/scalar overflow ladder.", "tier"),
	}
}

// Observe publishes one batch of aggregated kernel stats; a tier with a zero
// delta is not touched, so it gets no series before its first sequence.
func (m *Metrics) Observe(s Stats) {
	if s.Scored8 > 0 {
		m.Fallback.With(Tier8).Add(float64(s.Scored8))
	}
	if s.Fallback16 > 0 {
		m.Fallback.With(Tier16).Add(float64(s.Fallback16))
	}
	if s.FallbackSW > 0 {
		m.Fallback.With(TierScalar).Add(float64(s.FallbackSW))
	}
}
