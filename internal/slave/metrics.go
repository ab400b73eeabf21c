package slave

import "repro/internal/metrics"

// TaskBuckets spans task wall times from milliseconds (tiny queries) to
// minutes (whole-database scans), in seconds.
var TaskBuckets = []float64{0.005, 0.025, 0.1, 0.5, 2, 10, 60, 300}

// Metrics is the slave-side instrumentation bundle, attached through
// Options.Metrics; NewMetrics(nil) is the uninstrumented bundle.
type Metrics struct {
	// TaskSeconds is the wall time of each completed task on this slave
	// (canceled tasks are not observed — their duration says nothing about
	// throughput).
	TaskSeconds *metrics.Histogram
	// Cells counts DP cells whose results reached the master: per-progress
	// deltas plus each task's final delta.
	Cells *metrics.Counter
	// Reconnects counts successful re-dials after a lost master.
	Reconnects *metrics.Counter
	// BackoffSleeps / BackoffSeconds count the retry sleeps (and their
	// total duration) taken while the master was unreachable.
	BackoffSleeps  *metrics.Counter
	BackoffSeconds *metrics.Counter
}

// NewMetrics registers (or re-attaches to) the slave families on r.
func NewMetrics(r *metrics.Registry) *Metrics {
	return &Metrics{
		TaskSeconds:    r.Histogram("slave_task_seconds", "Wall time per completed task.", TaskBuckets),
		Cells:          r.Counter("slave_cells_computed_total", "DP cells computed and reported to the master."),
		Reconnects:     r.Counter("slave_reconnects_total", "Successful reconnections after a lost master."),
		BackoffSleeps:  r.Counter("slave_backoff_sleeps_total", "Retry sleeps taken while the master was unreachable."),
		BackoffSeconds: r.Counter("slave_backoff_seconds_total", "Total time spent in retry backoff sleeps."),
	}
}
