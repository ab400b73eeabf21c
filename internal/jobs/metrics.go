package jobs

import "repro/internal/metrics"

// WaitBuckets spans queue-wait latencies: a healthy queue drains in
// milliseconds, a saturated one backs up toward the minute range.
var WaitBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2, 10, 60, 300}

// RunBuckets spans job execution times, from trivial single-query searches
// to full-database batch jobs.
var RunBuckets = []float64{0.01, 0.05, 0.25, 1, 5, 20, 60, 300, 1200}

// ResultBuckets spans encoded result sizes in bytes.
var ResultBuckets = []float64{1 << 10, 16 << 10, 256 << 10, 1 << 20, 16 << 20, 256 << 20}

// Metrics is the job subsystem's instrumentation bundle. A Manager always
// holds one: a nil Config.Metrics becomes NewMetrics(nil), whose handles
// are no-ops, so embedded and test uses pay a nil check per update.
type Metrics struct {
	Submitted   *metrics.Counter
	Coalesced   *metrics.Counter
	Rejected    *metrics.CounterVec
	Completed   *metrics.CounterVec
	CacheHits   *metrics.Counter
	CacheMisses *metrics.Counter
	StoreErrors *metrics.Counter

	QueueDepth    *metrics.Gauge
	ExecutorsBusy *metrics.Gauge
	// CacheBytes reports the body bytes held on retained records. A cache
	// hit shares its source's body and both are counted, so the figure is
	// conservative: it can overstate memory, never understate it.
	CacheBytes *metrics.Gauge
	ByState    *metrics.GaugeVec

	// Per-tenant families (the "default" label is the anonymous tenant).
	TenantQueued   *metrics.GaugeVec
	TenantRunning  *metrics.GaugeVec
	TenantRejected *metrics.CounterVec
	TenantServed   *metrics.CounterVec

	WaitSeconds *metrics.Histogram
	RunSeconds  *metrics.Histogram
	ResultBytes *metrics.Histogram
}

// NewMetrics registers (or re-attaches to) the job families on r.
func NewMetrics(r *metrics.Registry) *Metrics {
	return &Metrics{
		Submitted:      r.Counter("jobs_submitted_total", "Job submissions accepted (including cache hits, excluding coalesced duplicates)."),
		Coalesced:      r.Counter("jobs_coalesced_total", "Submissions merged into an identical queued or running job (singleflight)."),
		Rejected:       r.CounterVec("jobs_rejected_total", "Submissions rejected by admission control, by reason.", "reason"),
		Completed:      r.CounterVec("jobs_completed_total", "Jobs reaching a terminal state, by outcome.", "outcome"),
		CacheHits:      r.Counter("jobs_cache_hits_total", "Submissions answered from a retained done record without execution."),
		CacheMisses:    r.Counter("jobs_cache_misses_total", "Submissions that had to enqueue an execution."),
		StoreErrors:    r.Counter("jobs_store_errors_total", "Durable-store write failures (jobs keep running; durability degrades)."),
		QueueDepth:     r.Gauge("jobs_queue_depth", "Jobs waiting for an executor."),
		ExecutorsBusy:  r.Gauge("jobs_executors_busy", "Executors currently running a job."),
		CacheBytes:     r.Gauge("jobs_cache_bytes", "Bytes of result bodies held on retained records."),
		ByState:        r.GaugeVec("jobs_by_state", "Jobs currently tracked, by state.", "state"),
		TenantQueued:   r.GaugeVec("tenant_queued_jobs", "Jobs waiting for an executor, by tenant.", "tenant"),
		TenantRunning:  r.GaugeVec("tenant_running_jobs", "Jobs currently executing, by tenant.", "tenant"),
		TenantRejected: r.CounterVec("tenant_rejected_total", "Submissions rejected by per-tenant quota, by tenant.", "tenant"),
		TenantServed:   r.CounterVec("tenant_served_residues_total", "Query residues successfully served, by tenant.", "tenant"),
		WaitSeconds:    r.Histogram("jobs_wait_seconds", "Time from submission to execution start.", WaitBuckets),
		RunSeconds:     r.Histogram("jobs_run_seconds", "Job execution time.", RunBuckets),
		ResultBytes:    r.Histogram("jobs_result_bytes", "Encoded result size per executed job.", ResultBuckets),
	}
}
