package cluster

import "repro/internal/metrics"

// ScanBuckets spans one shard's scan time within a job: sub-millisecond
// for tiny test shards up to minutes for real database partitions.
var ScanBuckets = []float64{0.001, 0.01, 0.05, 0.25, 1, 5, 20, 60, 300}

// Metrics is the cluster backend's instrumentation bundle. A Fleet always
// holds one, built on Config.Registry; over a nil registry its handles are
// no-ops.
type Metrics struct {
	Searches       *metrics.CounterVec // by mode
	ShardScans     *metrics.CounterVec // by outcome ("done", "failed")
	Failovers      *metrics.Counter
	ReplicasKilled *metrics.Counter
	LiveReplicas   *metrics.Gauge

	ShardScanSeconds *metrics.Histogram
}

// NewMetrics registers (or re-attaches to) the cluster families on r.
func NewMetrics(r *metrics.Registry) *Metrics {
	return &Metrics{
		Searches:         r.CounterVec("cluster_searches_total", "Scatter-gather searches executed, by pipeline mode.", "mode"),
		ShardScans:       r.CounterVec("cluster_shard_scans_total", "Per-shard scans finished within jobs, by outcome.", "outcome"),
		Failovers:        r.Counter("cluster_failovers_total", "Replica failures absorbed mid-job (tasks requeued onto surviving replicas)."),
		ReplicasKilled:   r.Counter("cluster_replicas_killed_total", "Replicas administratively killed through the fault-injection seam."),
		LiveReplicas:     r.Gauge("cluster_live_replicas", "Replica engines currently alive across all shards."),
		ShardScanSeconds: r.Histogram("cluster_shard_scan_seconds", "Wall time of one shard's scan within a job.", ScanBuckets),
	}
}
