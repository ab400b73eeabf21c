package farrar

import "repro/internal/metrics"

// Path label values of the farrar_cells_total counter.
const (
	PathLanes   = "lanes"
	PathStriped = "striped"
)

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
	// Cells counts the DP cells of Kernel.ScoreBatch calls by kernel path,
	// labelled path="lanes" | "striped".
	Cells *metrics.CounterVec
}

// NewMetrics registers (or re-attaches to) the kernel families on r; the
// gauge farrar_isa_info{isa=ISA()} 1 names the host's native kernel.
func NewMetrics(r *metrics.Registry) *Metrics {
	r.GaugeVec("farrar_isa_info", "Widest native 8-bit kernel this host runs (avx512vbmi, avx2, sse2 or swar); always 1.", "isa").With(ISA()).Set(1)
	return &Metrics{
		Fallback: r.CounterVec("farrar_fallback_total",
			"Sequences resolved per kernel tier of the 8/16/scalar overflow ladder.", "tier"),
		Cells: r.CounterVec("farrar_cells_total",
			"DP cells scored per kernel path: inter-sequence lanes or striped.", "path"),
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

// ObserveCells publishes one batch search's cells per path; a path with
// no cells is not touched.
func (m *Metrics) ObserveCells(c PathCells) {
	if c.Lanes > 0 {
		m.Cells.With(PathLanes).Add(float64(c.Lanes))
	}
	if c.Striped > 0 {
		m.Cells.With(PathStriped).Add(float64(c.Striped))
	}
}
