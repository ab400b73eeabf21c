package jobs

import "context"

// Backend names the shape of the engine fleet a Manager's jobs run on. It
// is a closed enum: the exhaustive analyzer audits switches over it.
type Backend string

const (
	// BackendLocal is the single-node shape: one shard holding the
	// platform's GPU and CPU engines.
	BackendLocal Backend = "local"
	// BackendCluster is the sharded shape: several database shards, each
	// with replicated engines, merged per query (internal/cluster).
	BackendCluster Backend = "cluster"
)

// Executor is the job-execution seam: a Manager routes every job body
// through Execute, and Kind stamps each job so observers (JobView, /readyz)
// can tell which backend produced a result.
//
// Execute must honor ctx — cancellation aborts the job — and may call
// Manager.SetShards with the same ctx to publish progress.
type Executor interface {
	// Kind identifies the backend for job stamping and health reporting.
	Kind() Backend
	// Execute runs one job to completion, returning the result body.
	Execute(ctx context.Context, req Request) ([]byte, error)
}

// ShardProgress is the live state of one database shard within a running
// job: how much of the shard's cell budget has been scanned, at
// what instantaneous rate, and which lifecycle state the scan is in
// ("pending", "scanning", "done", "failed").
type ShardProgress struct {
	Shard      int     `json:"shard"`
	State      string  `json:"state"`
	Cells      int64   `json:"cells"`
	TotalCells int64   `json:"total_cells"`
	Rate       float64 `json:"rate,omitempty"`
}

// SetShards records a running job's per-shard progress. The executor body
// calls it from inside Execute with the Execute context; calls with a
// foreign or stale context are dropped. The job's Shards slice is
// replaced, not mutated, so snapshots already handed out stay race-free.
func (m *Manager) SetShards(ctx context.Context, shards []ShardProgress) {
	id := JobID(ctx)
	if id == "" {
		return
	}
	next := make([]ShardProgress, len(shards))
	copy(next, shards)
	m.mu.Lock()
	defer m.mu.Unlock()
	j := m.jobs[id]
	if j == nil || j.State != StateRunning {
		return
	}
	j.Shards = next
}
