// Package cluster is the one place a search is executed over in-process
// engines: it partitions the database into contiguous shards, builds a
// replicated engine fleet over them, and executes each search as one
// master-protocol job per shard whose per-query top-k hits are merged
// under the module-wide ranking contract (wire.HitLess). The merge is
// deterministic — score descending, global database index ascending — so
// the ranking does not depend on the shard count, in both full and
// filtered modes. A single-node search (hybridsw.Search, swserve
// -backend=local) is the one-shard fleet whose replicas are the
// platform's GPU and CPU engines.
//
// Within a shard the unit of work is one query × one contiguous database
// range: New cuts every shard once into rangesPerEngine
// residue-balanced ranges per engine (partition, the function that cuts
// the shards) and hands the cut to each job's master, so a single query
// occupies every engine of its shard, PSS weights and first-copy-wins
// replication act inside a request, and a replica duplicates only the
// tail range. Filtered searches run on the same cut: each range task
// prefilters its range and rescores its own candidate windows.
//
// A replica loop has one stop signal, its slave.Options.Done: it closes
// when the shard job ends, when the search's context is cancelled and when
// the replica is killed. It is pushed rather than polled for: range tasks
// are too short to ever send the progress notification a cancellation
// rides on. Fault tolerance rides the existing master
// machinery: every shard's replicas register with the shard master as
// independent slaves, and once a killed replica's loop has stopped the
// shard reports it gone (SlaveGone), which requeues its tasks exactly as a
// dropped TCP connection does, and a surviving replica re-scans them. A
// job only fails when a shard has no live replica left to finish it.
package cluster

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/farrar"
	"repro/internal/master"
	"repro/internal/metrics"
	"repro/internal/prefilter"
	"repro/internal/sched"
	"repro/internal/score"
	"repro/internal/seq"
	"repro/internal/slave"
	"repro/internal/wire"
)

// ShardState is the lifecycle of one shard's scan within a job. It is a
// closed enum: the exhaustive analyzer audits switches over it.
type ShardState int

const (
	// ShardPending shards have not reported any progress yet.
	ShardPending ShardState = iota
	// ShardScanning shards have live replicas working through tasks.
	ShardScanning
	// ShardDone shards have every task's result collected.
	ShardDone
	// ShardFailed shards ran out of live replicas before finishing.
	ShardFailed
)

// String returns the state name used in progress views and metric labels.
func (s ShardState) String() string {
	switch s {
	case ShardPending:
		return "pending"
	case ShardScanning:
		return "scanning"
	case ShardDone:
		return "done"
	case ShardFailed:
		return "failed"
	default:
		return fmt.Sprintf("ShardState(%d)", int(s))
	}
}

// Config describes a fleet.
type Config struct {
	// DB is the database to shard. Sequences keep their global index:
	// shard boundaries never reorder the database, which is what keeps
	// the merged ranking identical to a single-node scan.
	DB []*seq.Sequence
	// Shards is the number of contiguous database partitions; 0 means 1.
	// Must not exceed len(DB) — every shard holds at least one sequence.
	Shards int
	// GPUs is the number of GPU engines per shard. A GPU engine is a CPU
	// engine that registers as a GPU, and runs every task kind.
	GPUs int
	// Replicas is the number of CPU engines per shard; 0 means
	// DefaultReplicas, or none on a shard that has GPUs. Every engine, GPU
	// or CPU, can complete the shard's full scan alone.
	Replicas int
	// Scheme is the scoring scheme; the zero value uses the paper's
	// BLOSUM62/10/2 default.
	Scheme score.Scheme
	// Registry receives the fleet's cluster_* families and every shard
	// job's master/scheduler/slave metrics; nil runs the fleet
	// uninstrumented.
	Registry *metrics.Registry
}

// DefaultReplicas is the per-shard CPU engine count when Config.Replicas
// and Config.GPUs are both 0.
const DefaultReplicas = 2

// replica is one engine of a shard. Engines are stateless between searches
// (each Search builds fresh kernels over the shared read-only database
// slice), so the same replica serves any number of concurrent jobs.
type replica struct {
	eng slave.Engine

	// life ends when the replica is killed (kill). Both are guarded by the
	// owning shard's mu, and ReviveReplica replaces them; a job reads life
	// once, when it starts, so a revival never reaches a running job.
	life context.Context
	kill context.CancelFunc
}

func newReplica(eng slave.Engine) *replica {
	life, kill := context.WithCancel(context.Background())
	return &replica{eng: eng, life: life, kill: kill}
}

// rangesPerEngine sizes the cut of a shard into database-range tasks: a
// full-scan query becomes this many tasks per engine of the shard, so the
// last task — the longest an engine can sit idle while another finishes —
// is a small share of a request, while a task stays far above the cost of
// its protocol round trips. It also sets how full a range's lane layout
// is: each range's longest lane target sets its column count, so a range
// needs many residues per lane. 4 keeps the residues per lane of the
// 64-lane kernel where 8 kept them for 32 lanes (occupancy 0.966 against
// 0.972 on the benchmark database; 0.561 at 8 per engine), and with 32
// lanes 4 and 8 measured within noise on the serving benchmark.
const rangesPerEngine = 4

// shard is one contiguous database partition and its replica set. The
// fields above mu are set once when the fleet is built.
type shard struct {
	index    int
	db       []*seq.Sequence // f.cfg.DB[offset : offset+len(db)]
	offset   int             // global index of db[0]
	residues int64
	// ranges cuts db into the contiguous, residue-balanced ranges a
	// full-scan query's tasks scan, in shard-local sequence indices.
	ranges []master.Range

	mu       sync.Mutex
	replicas []*replica
}

// liveReplicas returns the replicas currently alive, copied under mu: a
// copy keeps the life it was taken with whatever the replica goes through
// later.
func (s *shard) liveReplicas() []replica {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []replica
	for _, r := range s.replicas {
		if r.life.Err() == nil {
			out = append(out, *r)
		}
	}
	return out
}

// Fleet is a sharded, replicated engine set serving searches. Build one
// per resident database and share it across jobs: SearchContext is safe
// for concurrent use.
type Fleet struct {
	cfg      Config
	shards   []*shard
	met      *Metrics
	wireMet  *wire.Metrics
	slaveMet *slave.Metrics
}

// New partitions the database and builds the replica engines.
func New(cfg Config) (*Fleet, error) {
	if len(cfg.DB) == 0 {
		return nil, fmt.Errorf("cluster: empty database")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Shards > len(cfg.DB) {
		return nil, fmt.Errorf("cluster: %d shards over %d sequences (every shard needs at least one)", cfg.Shards, len(cfg.DB))
	}
	cfg.GPUs, cfg.Replicas = max(cfg.GPUs, 0), max(cfg.Replicas, 0)
	if cfg.GPUs+cfg.Replicas == 0 {
		cfg.Replicas = DefaultReplicas
	}
	if cfg.Scheme.Matrix == nil {
		cfg.Scheme = score.DefaultProtein()
	}
	f := &Fleet{
		cfg:      cfg,
		met:      NewMetrics(cfg.Registry),
		wireMet:  wire.NewMetrics(cfg.Registry),
		slaveMet: slave.NewMetrics(cfg.Registry),
	}
	kernMet, filtMet := farrar.NewMetrics(cfg.Registry), prefilter.NewMetrics(cfg.Registry)
	for _, part := range partition(cfg.DB, cfg.Shards) {
		s := &shard{index: len(f.shards), db: cfg.DB[part.Lo:part.Hi], offset: part.Lo, residues: part.Residues}
		engines, err := newEngines(s.index, cfg, s.db, kernMet, filtMet)
		if err != nil {
			return nil, err
		}
		s.ranges = partition(s.db, min(rangesPerEngine*len(engines), len(s.db)))
		for _, eng := range engines {
			s.replicas = append(s.replicas, newReplica(eng))
		}
		f.shards = append(f.shards, s)
	}
	f.met.LiveReplicas.Set(float64(cfg.Shards * (cfg.GPUs + cfg.Replicas)))
	return f, nil
}

// newEngines builds one shard's engine set over its database slice:
// cfg.GPUs GPU engines, then cfg.Replicas Farrar CPU engines, all replicas
// of one FarrarEngine, so the shard holds one lane layout per range however
// many engines scan it. They publish their 8/16/scalar fallback telemetry
// into kernMet and their prefilter scan accounting into filtMet.
func newEngines(shard int, cfg Config, db []*seq.Sequence, kernMet *farrar.Metrics, filtMet *prefilter.Metrics) ([]slave.Engine, error) {
	base, err := slave.NewFarrarEngine(fmt.Sprintf("shard%d", shard), cfg.Scheme, db, 0)
	if err != nil {
		return nil, err
	}
	base.SetKernelMetrics(kernMet)
	base.SetPrefilterMetrics(filtMet)
	var engines []slave.Engine
	for i := 0; i < cfg.GPUs; i++ {
		engines = append(engines, base.Replica(fmt.Sprintf("shard%d/gpu%d", shard, i), sched.KindGPU))
	}
	for i := 0; i < cfg.Replicas; i++ {
		engines = append(engines, base.Replica(fmt.Sprintf("shard%d/replica%d", shard, i), sched.KindCPU))
	}
	return engines, nil
}

// partition splits db into n contiguous, residue-balanced half-open
// sequence-index ranges, each with its residue count: the fleet's shards,
// and within a shard the ranges of its tasks. Boundaries are chosen
// greedily against the ideal cumulative split points, but never leave a
// later range without sequences; n must be in [1, len(db)].
func partition(db []*seq.Sequence, n int) []master.Range {
	var total int64
	for _, d := range db {
		total += int64(d.Len())
	}
	parts := make([]master.Range, 0, n)
	start := 0
	var cum int64
	for i := 0; i < n; i++ {
		// Ideal cumulative residue count at the end of part i.
		target := total * int64(i+1) / int64(n)
		end, before := start, cum
		for end < len(db) && (end-start == 0 || cum < target || i == n-1) {
			// Leave at least one sequence per remaining part.
			if len(db)-end <= n-1-i {
				break
			}
			cum += int64(db[end].Len())
			end++
		}
		parts = append(parts, master.Range{Lo: start, Hi: end, Residues: cum - before})
		start = end
	}
	return parts
}

// ShardHealth is one shard's liveness snapshot, the /readyz payload.
type ShardHealth struct {
	Shard     int   `json:"shard"`
	Sequences int   `json:"sequences"`
	Residues  int64 `json:"residues"`
	Replicas  int   `json:"replicas"`
	Live      int   `json:"live"`
}

// Health snapshots every shard's replica liveness, in shard order.
func (f *Fleet) Health() []ShardHealth {
	out := make([]ShardHealth, len(f.shards))
	for i, s := range f.shards {
		out[i] = ShardHealth{
			Shard: i, Sequences: len(s.db), Residues: s.residues,
			Replicas: len(s.replicas), Live: len(s.liveReplicas()),
		}
	}
	return out
}

// KillReplica marks one replica dead, the fault-injection seam chaos tests
// and the e2e crash scenario use: the replica's loop in every running job
// stops at once (aborting its in-flight scan), then its tasks requeue on
// the shard master and a surviving replica re-scans them.
func (f *Fleet) KillReplica(shardIdx, replicaIdx int) error {
	r, err := f.replicaAt(shardIdx, replicaIdx)
	if err != nil {
		return err
	}
	s := f.shards[shardIdx]
	s.mu.Lock()
	defer s.mu.Unlock()
	if r.life.Err() != nil {
		return nil
	}
	r.kill()
	f.met.ReplicasKilled.Inc()
	f.met.LiveReplicas.Add(-1)
	return nil
}

// ReviveReplica returns a killed replica to service for jobs submitted
// after the call (jobs already running keep treating it as dead).
func (f *Fleet) ReviveReplica(shardIdx, replicaIdx int) error {
	r, err := f.replicaAt(shardIdx, replicaIdx)
	if err != nil {
		return err
	}
	s := f.shards[shardIdx]
	s.mu.Lock()
	defer s.mu.Unlock()
	if r.life.Err() == nil {
		return nil
	}
	*r = *newReplica(r.eng)
	f.met.LiveReplicas.Add(1)
	return nil
}

func (f *Fleet) replicaAt(shardIdx, replicaIdx int) (*replica, error) {
	if shardIdx < 0 || shardIdx >= len(f.shards) {
		return nil, fmt.Errorf("cluster: no shard %d", shardIdx)
	}
	s := f.shards[shardIdx]
	if replicaIdx < 0 || replicaIdx >= len(s.replicas) {
		return nil, fmt.Errorf("cluster: shard %d has no replica %d", shardIdx, replicaIdx)
	}
	return s.replicas[replicaIdx], nil
}
