// Package master implements the wall-clock master process of the task
// execution environment (§IV, Fig. 4): it acquires the query sequences,
// builds one task per query and database range — one very coarse-grained
// task per query, the paper's grain, unless the job's Config carries a
// finer cut — registers slaves, assigns tasks through the configured
// allocation policy (with the workload adjustment mechanism), merges the
// results and reports them to the user.
//
// The scheduling brain is the same sched.Coordinator that drives the
// virtual-time experiments, and the protocol brain is Core — a
// clock-passed, single-threaded dispatch state machine shared with the
// deterministic cluster simulator (internal/sim). This file only adds the
// wall clock, the mutex and the network plumbing.
package master

import (
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/prefilter"
	"repro/internal/sched"
	"repro/internal/seq"
	"repro/internal/wire"
)

// Config describes one job.
type Config struct {
	Queries    []*seq.Sequence
	DBResidues int64 // database size, for task cell counts
	// Ranges cuts the job's database into contiguous sequence-index
	// ranges, one task per query and range, so PSS weights and first-copy-
	// wins replication act inside a query and a replica duplicates only
	// the tail range. It is the caller's statement about the slaves'
	// resident database (internal/cluster computes it once per shard): the
	// ranges must start at 0, leave no gap and hold DBResidues between
	// them. Nil is one whole-database range, the paper's one task per
	// query.
	Ranges []Range
	Policy sched.Policy // nil means PSS
	Adjust bool
	Omega  int
	// Lease enables lease-based failure detection: a slave that stays
	// silent for longer than this is declared dead and its tasks requeue,
	// which rescues jobs from hung slaves (process alive, connection open,
	// no progress) that SlaveGone never notices. Must comfortably exceed
	// the slaves' notification and standby-poll intervals. 0 disables.
	Lease time.Duration
	// Registry receives the job's full instrumentation: the coordinator's
	// task-lifecycle counters and depth gauges (sched.NewMetrics), the
	// master's protocol counters, and — for connections served through
	// Listen — wire dispatch latency histograms. Nil runs the job
	// uninstrumented.
	Registry *metrics.Registry
	// Events, when non-nil, receives the structured scheduler event stream
	// (assign/sample/exec/summary JSON lines) in the same shapes the
	// discrete-event runner's platform.WriteTrace emits, so one toolchain
	// reads wall-clock and simulated runs.
	Events *metrics.EventLog

	// Filtered makes every task a sched.TaskFiltered over its range: an
	// k-mer seed prefilter, then a Smith-Waterman rescore of the
	// candidate windows on the same slave. Filtered jobs do not restore
	// from checkpoints.
	Filtered bool
	// Filter parameterizes the prefilter; the zero value uses the
	// prefilter defaults. Ignored unless Filtered.
	Filter prefilter.Spec
	// Progress, when non-nil, is invoked on every progress report and
	// accepted completion with the job's authoritative finished-cell tally
	// (replicated scans are not double-counted) and the reporting slave's
	// instantaneous rate. Called under the master's lock: keep it fast and
	// never call back into the master. The cluster backend folds per-shard
	// progress out of this hook.
	Progress func(doneCells int64, rate float64)
}

// Range is one contiguous slice [Lo, Hi) of the slaves' resident database,
// in sequence indices, with the residues it holds — what keeps a range
// task's cell count exact.
type Range struct {
	Lo, Hi   int
	Residues int64
}

// schedConfig derives the coordinator configuration. sched.NewMetrics is
// idempotent per registry, so calling this more than once (New +
// LoadCheckpoint restore) re-attaches to the same families.
func (cfg Config) schedConfig() sched.Config {
	return sched.Config{
		Policy:  cfg.Policy,
		Adjust:  cfg.Adjust,
		Omega:   cfg.Omega,
		Metrics: sched.NewMetrics(cfg.Registry),
	}
}

// masterMetrics are the master-process protocol counters.
type masterMetrics struct {
	registrations *metrics.Counter
	deadSlaves    *metrics.Counter
	messages      *metrics.CounterVec
}

func newMasterMetrics(r *metrics.Registry) *masterMetrics {
	return &masterMetrics{
		registrations: r.Counter("master_registrations_total", "Slave registrations accepted."),
		deadSlaves:    r.Counter("master_dead_slaves_total", "Slaves declared dead (connection drop or lease expiry)."),
		messages:      r.CounterVec("master_messages_total", "Protocol messages dispatched, by kind.", "kind"),
	}
}

// QueryResult is the merged outcome for one query.
type QueryResult struct {
	Query    string
	Hits     []wire.Hit // best-first
	Slave    sched.SlaveID
	Elapsed  time.Duration // completion time relative to job start
	Replicas int           // how many extra copies the adjustment mechanism ran
}

// Master serves one job to any number of slaves. Fields above mu are set
// once in New and never reassigned (channels synchronize themselves; the
// metric bundles are built on Config.Registry, nil or not); the group
// below mu is what mu guards.
type Master struct {
	start time.Time
	lease time.Duration
	// done closes when every task has a result.
	done chan struct{}
	// stop ends the lease-expiry ticker when the master is shut down
	// before the job completes (Close); loopDone closes when the ticker
	// goroutine has actually exited, so Close can join it.
	stop     chan struct{}
	stopOnce sync.Once
	loopDone chan struct{}
	// serveErr receives each Listen serve loop's terminal error.
	serveErr chan error
	met      *masterMetrics
	wireMet  *wire.Metrics

	mu     sync.Mutex
	core   *Core
	closed bool
}

// New builds a master for the job.
func New(cfg Config) (*Master, error) {
	var core *Core
	var err error
	if cfg.Filtered {
		core, err = NewFilteredCore(cfg.Queries, cfg.DBResidues, cfg.Ranges, cfg.Filter, cfg.schedConfig(), cfg.Events)
	} else {
		core, err = NewCore(cfg.Queries, cfg.DBResidues, cfg.Ranges, cfg.schedConfig(), cfg.Events)
	}
	if err != nil {
		return nil, err
	}
	core.SetProgress(cfg.Progress)
	core.SetFilterMetrics(prefilter.NewMetrics(cfg.Registry))
	m := &Master{
		core:     core,
		start:    time.Now(),
		done:     make(chan struct{}),
		stop:     make(chan struct{}),
		loopDone: make(chan struct{}),
		serveErr: make(chan error, 1),
		lease:    cfg.Lease,
		met:      newMasterMetrics(cfg.Registry),
		wireMet:  wire.NewMetrics(cfg.Registry),
	}
	if m.lease > 0 {
		go m.expireLoop()
	}
	return m, nil
}

func (m *Master) now() time.Duration { return time.Since(m.start) }

// expireLoop drives the coordinator's lease-based failure detector on the
// wall clock, checking several times per lease so detection latency stays
// a small multiple of the lease itself.
func (m *Master) expireLoop() {
	defer close(m.loopDone)
	interval := m.lease / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-m.done:
			return
		case <-m.stop:
			return
		case <-t.C:
			m.mu.Lock()
			expired := m.core.Expire(m.now(), m.lease)
			m.met.deadSlaves.Add(float64(len(expired)))
			m.mu.Unlock()
		}
	}
}

// Close stops the lease-expiry ticker and waits for it to exit, so callers
// can read coordinator state afterwards without racing the detector, and
// withdraws the job's share of the pool gauges (sched_ready_tasks and
// siblings sum over the jobs still open on the registry). It does not close
// listeners returned by Listen.
func (m *Master) Close() {
	m.stopOnce.Do(func() { close(m.stop) })
	if m.lease > 0 {
		<-m.loopDone
	}
	m.mu.Lock()
	m.core.Coordinator().RetireGauges()
	m.mu.Unlock()
}

// Dispatch implements wire.Handler: the single protocol entry point on the
// wall clock. All protocol behaviour lives in Core.Dispatch; this wrapper
// adds the lock, the clock, the protocol counters and the done channel.
func (m *Master) Dispatch(req wire.Envelope) wire.Envelope {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.met.messages.With(wire.KindOf(req).String()).Inc()
	resp := m.core.Dispatch(req, m.now())
	if req.Register != nil && resp.RegisterAck != nil {
		m.met.registrations.Inc()
	}
	if m.core.Done() && !m.closed {
		m.closed = true
		close(m.done)
	}
	return resp
}

// SlaveGone implements wire.Handler: a slave's connection dropped, so its
// tasks return to the pool (the paper's future-work scenario of nodes
// leaving mid-run).
func (m *Master) SlaveGone(id sched.SlaveID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.core.SlaveGone(id) {
		m.met.deadSlaves.Inc()
	}
}

// Done returns a channel closed when every task has a result.
func (m *Master) Done() <-chan struct{} { return m.done }

// Wait blocks until the job completes or the timeout elapses.
func (m *Master) Wait(timeout time.Duration) error {
	select {
	case <-m.done:
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("master: job not finished after %v", timeout)
	}
}

// Results merges and returns the per-query outcomes, in query order.
func (m *Master) Results() []QueryResult {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.core.Results()
}

// FilterStats returns the filtered pipeline's accounting so far (zero for
// full-scan jobs).
func (m *Master) FilterStats() FilterStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.core.FilterStats()
}

// Elapsed returns the job's wall-clock duration so far (or final, once
// done).
func (m *Master) Elapsed() time.Duration { return m.now() }

// Coordinator exposes the scheduling state for reports.
func (m *Master) Coordinator() *sched.Coordinator {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.core.Coordinator()
}

// Listen binds addr and serves slave connections in the background. It
// returns the bound listener so callers can learn the address and close
// it. The serve loop's terminal error — an unexpected accept failure, or
// the routine "use of closed network connection" after the caller closes
// the listener — is delivered on ServeErrors instead of being discarded.
func (m *Master) Listen(addr string) (net.Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	// On an instrumented master every served connection's dispatches are
	// timed per message kind (wire_call_seconds).
	h := wire.MeterHandler(wire.Handler(m), m.wireMet)
	go func() {
		err := wire.Serve(l, h)
		select {
		case m.serveErr <- err:
		default: // nobody drained the previous error; keep the oldest
		}
	}()
	return l, nil
}

// ServeErrors exposes the terminal error of each Listen serve loop (one
// send per Listen call). The channel is buffered; if several serve loops
// end before anyone reads, only the first error is retained.
func (m *Master) ServeErrors() <-chan error { return m.serveErr }

// SaveCheckpoint writes the job's durable state (task set + collected
// results) as a gob stream. Restarting with LoadCheckpoint skips every
// finished task; unfinished ones re-run. Hit payloads are gob-registered by
// this package.
func (m *Master) SaveCheckpoint(w io.Writer) error {
	m.mu.Lock()
	snap := m.core.Snapshot()
	m.mu.Unlock()
	return gob.NewEncoder(w).Encode(snap)
}

// LoadCheckpoint rebuilds a master from a checkpoint. The same queries (in
// the same order) must be supplied — the checkpoint carries only scheduling
// state, not sequence data — and are verified against the snapshot, as is
// cfg.Ranges against each task's range. Only full-scan jobs restore.
func LoadCheckpoint(r io.Reader, cfg Config) (*Master, error) {
	if cfg.Filtered {
		return nil, fmt.Errorf("master: filtered jobs do not restore from checkpoints")
	}
	var snap sched.Snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("master: reading checkpoint: %w", err)
	}
	m, err := New(cfg)
	if err != nil {
		return nil, err
	}
	core, err := RestoreCore(&snap, cfg.Queries, cfg.Ranges, cfg.schedConfig(), cfg.Events)
	if err != nil {
		m.Close()
		return nil, err
	}
	// New may already have started the lease-expiry loop, which reads
	// m.core under the mutex — swap the restored core in under it.
	m.mu.Lock()
	m.core.Coordinator().RetireGauges() // the core New built never runs
	m.core = core
	if m.core.Done() && !m.closed {
		m.closed = true
		close(m.done)
	}
	m.mu.Unlock()
	return m, nil
}

func init() {
	// Checkpoint payloads are the per-task hit lists.
	gob.Register([]wire.Hit{})
}
