// Package jobs is the asynchronous job subsystem between the HTTP serving
// layer and the hybrid search engine: a bounded priority queue with
// admission control, a fixed-size executor pool with end-to-end context
// cancellation, singleflight coalescing of identical in-flight submissions,
// and an optional durable store (JSON-lines WAL + snapshot) so queued work
// survives a restart. A finished result has one home, its retained done
// record: the newest done record for a content key answers repeats, so the
// retention queue is the result cache.
//
// The paper's environment runs one batch search at a time on a dedicated
// master (§IV-A); this package is what lets the same engine absorb many
// concurrent callers: overload is rejected early (429-style, with a retry
// hint) instead of accepted and thrashed, identical work executes once, and
// repeated queries are answered from a retained record without touching a
// kernel.
//
// The Manager knows nothing about Smith-Waterman: Config.Executor is the
// job body (the HTTP layer's executor runs the search on its engine fleet), and
// results are opaque byte slices, which keeps the subsystem independently
// testable.
package jobs

import (
	"context"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// State is a job's lifecycle position.
type State string

// The job lifecycle: queued -> running -> done | failed | canceled.
// Cancellation can also strike a queued job directly. On restart, a job
// found running is demoted to queued and re-executed.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether s is a final state.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateCanceled:
		return true
	case StateQueued, StateRunning:
		return false
	default:
		return false
	}
}

// Request is the executable payload of a job. QueriesFasta, TopK, Policy
// and Align define the work (and the cache identity); Priority orders the
// tenant's queue (higher first, FIFO within a level); Queries and Residues are
// accounting filled in by the submitter after parsing, so admission control
// can cap request size without re-parsing FASTA. A terminal job's record
// drops QueriesFasta: the work is done and its key already computed.
type Request struct {
	QueriesFasta string `json:"queries_fasta"`
	TopK         int    `json:"top_k,omitempty"`
	Policy       string `json:"policy,omitempty"`
	Align        bool   `json:"align,omitempty"`
	// Mode selects the pipeline ("" or "full" = exhaustive scan, "filtered"
	// = prefilter + rescore); FilterK and FilterMargin tune the filtered
	// pipeline's seed length and window margin (0 = engine defaults). All
	// three are part of the cache identity — a filtered result must never
	// answer a full-scan request.
	Mode         string `json:"mode,omitempty"`
	FilterK      int    `json:"filter_k,omitempty"`
	FilterMargin int    `json:"filter_margin,omitempty"`
	Priority     int    `json:"priority,omitempty"`
	Queries      int    `json:"queries,omitempty"`
	Residues     int64  `json:"residues,omitempty"`
	// Tenant names the submitter for quota enforcement and fair queueing.
	// Empty is the anonymous tenant. Tenant is deliberately NOT part of the
	// cache identity: results depend only on the query and the database, so
	// tenants share cache entries (and identical in-flight submissions
	// coalesce across tenants without charging the later tenant's quota).
	// Because Request is embedded in the persisted Job record, tenancy
	// rides the WAL for free and survives a restart.
	Tenant string `json:"tenant,omitempty"`
}

// Job is the public snapshot of one job's state.
type Job struct {
	ID       string    `json:"id"`
	Key      string    `json:"key"`
	State    State     `json:"state"`
	Request  Request   `json:"request"`
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started"`
	Finished time.Time `json:"finished"`
	Error    string    `json:"error,omitempty"`
	// Coalesced counts extra submissions merged into this execution.
	Coalesced int `json:"coalesced,omitempty"`
	// CacheHit marks a job answered from the result cache without running.
	CacheHit    bool  `json:"cache_hit,omitempty"`
	ResultBytes int64 `json:"result_bytes,omitempty"`
	// Backend names the execution path that runs (or ran) this job.
	Backend Backend `json:"backend,omitempty"`
	// Shards is the live per-shard progress of the job, fed by SetShards
	// while it runs.
	Shards []ShardProgress `json:"shards,omitempty"`
}

// job is the Manager's live record: the public snapshot plus coordination
// state. Every field is mutated under the Manager's mutex.
type job struct {
	Job
	done     chan struct{}      // closed on terminal transition
	cancel   context.CancelFunc // set while running
	canceled bool               // a caller asked for cancellation
	async    bool               // owned by a fire-and-forget submission
	waiters  int                // attached synchronous waiters
	// pending counts synchronous submissions that have not yet collected
	// the result. body holds a done job's result from completion until the
	// record is pruned or trimLocked drops it.
	pending int
	body    []byte
}

func (j *job) snapshot() Job { return j.Job }

// ErrNotFound is returned for unknown job IDs.
var ErrNotFound = errors.New("jobs: no such job")

// RejectError is an admission-control rejection. Reason is machine-readable
// ("queue_full", "too_many_queries", "too_many_residues", "draining");
// RetryAfter, when positive, hints that the same request can succeed later
// (the HTTP layer turns it into a Retry-After header on a 429).
type RejectError struct {
	Reason     string
	Detail     string
	RetryAfter time.Duration
}

func (e *RejectError) Error() string { return "jobs: " + e.Detail }

// Config describes a Manager.
type Config struct {
	// Executor runs the jobs: each job body goes through Executor.Execute
	// and is stamped with Executor.Kind(). Required.
	Executor Executor
	// Salt folds the serving identity (database, platform, scheme) into the
	// cache key, so results never leak across different configurations.
	Salt string
	// Executors is the worker-pool size; 0 means DefaultExecutors and
	// negative means none (jobs queue but never run — tests and drained
	// replicas).
	Executors int
	// MaxQueue bounds queued (not running) jobs; 0 means DefaultMaxQueue.
	MaxQueue int
	// MaxQueries and MaxResidues cap one request's declared size; 0 means
	// uncapped here (the HTTP layer applies its own validation caps).
	MaxQueries  int
	MaxResidues int64
	// CacheBytes budgets the result bodies held on retained done records;
	// past it the oldest-finished records drop theirs, except a body still
	// owed to a caller (see trimLocked). 0 means DefaultCacheBytes and
	// negative holds no body that nobody is owed: in memory mode a repeat
	// then re-runs, in durable mode it reads the persisted result.
	CacheBytes int64
	// Dir, when non-empty, makes the Manager durable: job records are
	// WAL-logged and snapshotted there and results are persisted, so
	// queued/finished jobs survive a restart.
	Dir string
	// MaxJobs bounds retained terminal job records (the oldest-finished
	// are pruned as new ones finish); 0 means DefaultMaxJobs.
	MaxJobs int
	// RetryAfter is the base hint attached to backpressure rejections; the
	// actual hint scales with queue depth (see RetryAfterFor). 0 means
	// DefaultRetryAfter.
	RetryAfter time.Duration
	// Tenants maps tenant names to their scheduling contracts (weights and
	// quotas); TenantDefaults applies to unlisted tenants. Zero values mean
	// weight 1 and no quotas, which keeps single-tenant deployments
	// entirely unaffected.
	Tenants        map[string]TenantConfig
	TenantDefaults TenantConfig
	// Metrics instruments every transition (see NewMetrics); nil means
	// NewMetrics(nil), the uninstrumented bundle.
	Metrics *Metrics
}

// Defaults for the zero-valued Config knobs.
const (
	DefaultExecutors  = 2
	DefaultMaxQueue   = 64
	DefaultCacheBytes = 1 << 20
	DefaultMaxJobs    = 256
	DefaultRetryAfter = 2 * time.Second

	// snapshotEvery compacts the WAL after this many appended records.
	snapshotEvery = 256
)

// Manager owns the queue, the executor pool, the retained records and the
// durable store. Fields above mu are set once in New; the group below mu is
// what mu guards.
type Manager struct {
	cfg Config
	met *Metrics // cfg.Metrics, or the uninstrumented bundle; never nil
	// backend stamps every new job with the execution path that will run
	// it (Config.Executor's kind).
	backend Backend
	base    context.Context
	abort   context.CancelFunc
	wg      sync.WaitGroup

	mu   sync.Mutex
	cond *sync.Cond
	st   *store
	jobs map[string]*job
	// byKey maps a content key to its in-flight job, or else to its newest
	// retained done record: the one lookup for coalescing and repeats.
	byKey map[string]*job
	// finished lists the retained terminal records, oldest-finished first:
	// the retention queue MaxJobs bounds.
	finished []*job
	// held sums the body bytes on retained records: the figure CacheBytes
	// budgets and Metrics.CacheBytes reports.
	held     int64
	q        *queue
	book     *TenantBook
	stopped  bool
	draining bool
}

// New builds a Manager and starts its executor pool. With Config.Dir set it
// first recovers the surviving job records: terminal jobs reload as history
// (their results readable if persisted), and queued or previously running
// jobs re-enqueue in creation order.
func New(cfg Config) (*Manager, error) {
	if cfg.Executor == nil {
		return nil, fmt.Errorf("jobs: Config.Executor is required")
	}
	// A weight of +Inf would charge its tenant nothing per dequeue, so its
	// pass would never advance and it would starve every other tenant; NaN
	// and negative weights break the pass order as well.
	for name, tc := range cfg.Tenants {
		if err := checkWeight(tc.Weight); err != nil {
			return nil, fmt.Errorf("jobs: tenant %q: %w", name, err)
		}
	}
	if err := checkWeight(cfg.TenantDefaults.Weight); err != nil {
		return nil, fmt.Errorf("jobs: TenantDefaults: %w", err)
	}
	if cfg.Executors == 0 {
		cfg.Executors = DefaultExecutors
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = DefaultMaxQueue
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = DefaultCacheBytes
	}
	if cfg.MaxJobs == 0 {
		cfg.MaxJobs = DefaultMaxJobs
	}
	if cfg.RetryAfter == 0 {
		cfg.RetryAfter = DefaultRetryAfter
	}
	met := cfg.Metrics
	if met == nil {
		met = NewMetrics(nil)
	}
	// The Manager's base ctx outlives any submitter: queued jobs survive
	// caller disconnects and re-run after recovery, so it must root at
	// Background.
	base, abort := context.WithCancel(context.Background())
	book := NewTenantBook(cfg.Tenants, cfg.TenantDefaults)
	m := &Manager{
		cfg:     cfg,
		met:     met,
		backend: cfg.Executor.Kind(),
		base:    base,
		abort:   abort,
		jobs:    map[string]*job{},
		byKey:   map[string]*job{},
		q:       newQueue(cfg.MaxQueue, book),
		book:    book,
	}
	m.cond = sync.NewCond(&m.mu)
	if cfg.Dir != "" {
		st, recs, err := openStore(cfg.Dir)
		if err != nil {
			abort()
			return nil, err
		}
		m.mu.Lock()
		m.st = st
		m.recoverLocked(recs)
		m.pruneLocked()
		m.mu.Unlock()
	}
	for i := 0; i < cfg.Executors; i++ {
		m.wg.Add(1)
		go m.executor()
	}
	return m, nil
}

// recoverLocked rebuilds the live state from persisted records. The key
// index points at a key's in-flight record if it has one, else at its
// newest-finished done record.
func (m *Manager) recoverLocked(recs []Job) {
	sort.Slice(recs, func(i, j int) bool {
		if !recs[i].Created.Equal(recs[j].Created) {
			return recs[i].Created.Before(recs[j].Created)
		}
		return recs[i].ID < recs[j].ID
	})
	for _, rec := range recs {
		j := &job{Job: rec, done: make(chan struct{}), async: true}
		switch rec.State {
		case StateQueued, StateRunning:
			// A job caught mid-run by the crash restarts from scratch.
			j.Started, j.Finished = time.Time{}, time.Time{}
			j.Error = ""
			j.State = "" // setStateLocked charges the gauge fresh
			m.setStateLocked(j, StateQueued)
			m.q.forcePush(j)
			if m.byKey[j.Key] == nil {
				m.byKey[j.Key] = j
			}
			m.logLocked(j)
		case StateDone, StateFailed, StateCanceled:
			close(j.done)
			m.met.ByState.With(string(rec.State)).Inc()
			j.Request.QueriesFasta = ""
			m.finished = append(m.finished, j)
		default:
			continue // unknown state in a newer WAL: skip, don't crash
		}
		m.jobs[j.ID] = j
	}
	sort.SliceStable(m.finished, func(i, k int) bool {
		return m.finished[i].Finished.Before(m.finished[k].Finished)
	})
	for _, j := range m.finished {
		if j.State == StateDone {
			m.indexDoneLocked(j)
		}
	}
	m.met.QueueDepth.Set(float64(m.q.len()))
}

// key derives the content address of a request: everything that determines
// the result (queries, scoring knobs) plus the Manager's serving salt.
func (m *Manager) key(req Request) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%d\x00%s\x00%t\x00%s\x00%d\x00%d\x00%s",
		m.cfg.Salt, req.TopK, req.Policy, req.Align,
		req.Mode, req.FilterK, req.FilterMargin, req.QueriesFasta)
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// newID mints a job identifier.
func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("j%016x", time.Now().UnixNano())
	}
	return "j" + hex.EncodeToString(b[:])
}

// Submit runs a request through admission control and either coalesces it
// into an identical in-flight job, answers it from the key's newest retained
// done record (a cache hit), or enqueues it. async marks a fire-and-forget
// submission (POST /jobs): such jobs run to completion even if nobody waits,
// and only an explicit DELETE cancels them. Synchronous submissions
// (async=false) are cancelled automatically when their last waiter
// disconnects; each must be followed by one Wait or WaitResult, which
// collects it (until then its record is never pruned).
func (m *Manager) Submit(req Request, async bool) (Job, error) {
	if err := m.admit(req); err != nil {
		return Job{}, err
	}
	key := m.key(req)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stopped || m.draining {
		m.countRejectLocked("draining")
		return Job{}, &RejectError{Reason: "draining", Detail: "server is draining; not accepting jobs"}
	}
	cur := m.byKey[key]
	if cur != nil && !cur.State.Terminal() {
		cur.Coalesced++
		if async {
			cur.async = true
		} else {
			cur.pending++
		}
		m.met.Coalesced.Inc()
		return cur.snapshot(), nil
	}
	if body, ok := m.bodyLocked(cur); ok {
		j := m.newJobLocked(key, req, async)
		now := time.Now()
		j.Started, j.Finished = now, now
		j.CacheHit = true
		j.ResultBytes = int64(len(body))
		if !async {
			j.pending = 1
		}
		j.body = body
		m.held += int64(len(body))
		m.setStateLocked(j, StateDone)
		close(j.done)
		m.met.Submitted.Inc()
		m.met.CacheHits.Inc()
		m.byKey[key] = j
		m.retireLocked(j)
		m.logLocked(j)
		return j.snapshot(), nil
	}
	if rej := m.book.Admit(req.Tenant, req.Residues); rej != nil {
		m.countRejectLocked("tenant_quota")
		m.met.TenantRejected.With(tenantLabel(req.Tenant)).Inc()
		// The hint tracks the rejected tenant's own backlog: that is what
		// has to drain before its next submission fits the quota.
		outstanding, _ := m.book.Outstanding(req.Tenant)
		rej.RetryAfter = RetryAfterFor(m.cfg.RetryAfter, outstanding, m.cfg.Executors)
		return Job{}, rej
	}
	if m.q.len() >= m.cfg.MaxQueue {
		m.countRejectLocked("queue_full")
		return Job{}, &RejectError{
			Reason:     "queue_full",
			Detail:     fmt.Sprintf("queue is full (%d jobs)", m.q.len()),
			RetryAfter: RetryAfterFor(m.cfg.RetryAfter, m.q.len(), m.cfg.Executors),
		}
	}
	j := m.newJobLocked(key, req, async)
	if !async {
		j.pending = 1
	}
	m.setStateLocked(j, StateQueued)
	m.q.push(j)
	m.byKey[key] = j
	m.met.Submitted.Inc()
	m.met.CacheMisses.Inc()
	m.met.QueueDepth.Set(float64(m.q.len()))
	m.syncTenantLocked(req.Tenant)
	m.logLocked(j)
	m.cond.Signal()
	return j.snapshot(), nil
}

// tenantLabel is the metric label for a tenant; the anonymous tenant
// renders as "default".
func tenantLabel(tenant string) string {
	if tenant == "" {
		return "default"
	}
	return tenant
}

// syncTenantLocked refreshes one tenant's queued/running gauges.
func (m *Manager) syncTenantLocked(tenant string) {
	label := tenantLabel(tenant)
	m.met.TenantQueued.With(label).Set(float64(m.book.Queued(tenant)))
	m.met.TenantRunning.With(label).Set(float64(m.book.Running(tenant)))
}

// admit applies the per-request size caps (no lock needed: caps are
// immutable and the rejection counter is atomic).
func (m *Manager) admit(req Request) error {
	var reason, detail string
	switch {
	case m.cfg.MaxQueries > 0 && req.Queries > m.cfg.MaxQueries:
		reason = "too_many_queries"
		detail = fmt.Sprintf("%d queries exceeds the %d-query cap", req.Queries, m.cfg.MaxQueries)
	case m.cfg.MaxResidues > 0 && req.Residues > m.cfg.MaxResidues:
		reason = "too_many_residues"
		detail = fmt.Sprintf("%d total query residues exceeds the %d-residue cap", req.Residues, m.cfg.MaxResidues)
	default:
		return nil
	}
	m.met.Rejected.With(reason).Inc()
	return &RejectError{Reason: reason, Detail: detail}
}

func (m *Manager) countRejectLocked(reason string) {
	m.met.Rejected.With(reason).Inc()
}

func (m *Manager) newJobLocked(key string, req Request, async bool) *job {
	j := &job{
		Job: Job{
			ID:      newID(),
			Key:     key,
			Request: req,
			Created: time.Now(),
			Backend: m.backend,
		},
		done:  make(chan struct{}),
		async: async,
	}
	m.jobs[j.ID] = j
	return j
}

// setStateLocked transitions a job and keeps the by-state gauge honest.
func (m *Manager) setStateLocked(j *job, s State) {
	if j.State != "" {
		m.met.ByState.With(string(j.State)).Dec()
	}
	m.met.ByState.With(string(s)).Inc()
	j.State = s
}

// bodyLocked reads a done record's result: the body the record holds, or
// else, in durable mode, the persisted copy. It is the one read path for
// Result and for Submit's repeats; j may be nil (no record, no body).
func (m *Manager) bodyLocked(j *job) ([]byte, bool) {
	switch {
	case j == nil:
		return nil, false
	case j.body != nil:
		return j.body, true
	case m.st != nil:
		return m.st.loadResult(j.Key)
	default:
		return nil, false
	}
}

// logLocked appends the job's current record to the WAL (when durable) and
// compacts once the WAL has grown enough.
func (m *Manager) logLocked(j *job) {
	if m.st == nil {
		return
	}
	if err := m.st.append(j.Job); err != nil {
		m.met.StoreErrors.Inc()
		return
	}
	if m.st.appends >= snapshotEvery {
		m.snapshotLocked()
	}
}

// retireLocked files a job that just reached a terminal state: its record
// sheds the query FASTA and joins the retention queue, the oldest-finished
// records beyond MaxJobs are pruned and the held bodies trimmed to budget.
// This is the only retention path, in memory and durable mode alike.
func (m *Manager) retireLocked(j *job) {
	j.Request.QueriesFasta = ""
	m.finished = append(m.finished, j)
	m.pruneLocked()
	m.trimLocked()
}

// indexDoneLocked makes a done record its key's repeat answer, unless the
// key has an in-flight job: that one always keeps the slot.
func (m *Manager) indexDoneLocked(j *job) {
	if cur := m.byKey[j.Key]; cur == nil || cur.State.Terminal() {
		m.byKey[j.Key] = j
	}
}

// pruneLocked drops the oldest-finished terminal records beyond MaxJobs.
// A record a synchronous submitter has not collected yet stays queued, so
// its waiter always finds it, until the collect prunes it. The next
// snapshot drops the pruned records' persisted results.
func (m *Manager) pruneLocked() {
	over := len(m.finished) - m.cfg.MaxJobs
	if over <= 0 {
		return
	}
	kept := m.finished[:0]
	for _, j := range m.finished {
		if over > 0 && j.pending == 0 {
			delete(m.jobs, j.ID)
			if m.byKey[j.Key] == j {
				delete(m.byKey, j.Key)
			}
			m.held -= int64(len(j.body))
			m.met.ByState.With(string(j.State)).Dec()
			over--
			continue
		}
		kept = append(kept, j)
	}
	clear(m.finished[len(kept):])
	m.finished = kept
}

// trimLocked drops held bodies, oldest-finished first, while they exceed
// the CacheBytes budget. It never drops a body owed to a caller who could
// read it nowhere else: a synchronous submitter that has not collected it,
// or, without a durable store, an async job's owner. A trimmed record stays
// retained; in durable mode its result still reads back from disk.
func (m *Manager) trimLocked() {
	for _, j := range m.finished {
		if m.held <= max(m.cfg.CacheBytes, 0) {
			break
		}
		if j.body == nil || j.pending > 0 || (j.async && m.st == nil) {
			continue
		}
		m.held -= int64(len(j.body))
		j.body = nil
	}
	m.met.CacheBytes.Set(float64(m.held))
}

// snapshotLocked compacts the durable store to the retained records.
func (m *Manager) snapshotLocked() {
	if m.st == nil {
		return
	}
	all := make([]Job, 0, len(m.jobs))
	keep := make(map[string]bool, len(m.jobs))
	for _, j := range m.jobs {
		all = append(all, j.Job)
		keep[j.Key] = true
	}
	if err := m.st.snapshot(all, keep); err != nil {
		m.met.StoreErrors.Inc()
	}
}

// executor is one worker: it pops queued jobs and runs them until the
// Manager drains.
func (m *Manager) executor() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		for !m.stopped && !m.draining && m.q.len() == 0 {
			m.cond.Wait()
		}
		if m.stopped || m.draining {
			m.mu.Unlock()
			return
		}
		j := m.q.pop()
		jctx, cancel := context.WithCancel(m.base)
		jctx = context.WithValue(jctx, jobIDKey{}, j.ID)
		j.cancel = cancel
		j.Started = time.Now()
		m.setStateLocked(j, StateRunning)
		m.met.QueueDepth.Set(float64(m.q.len()))
		m.met.ExecutorsBusy.Inc()
		m.met.WaitSeconds.Observe(j.Started.Sub(j.Created).Seconds())
		m.syncTenantLocked(j.Request.Tenant)
		m.logLocked(j)
		req := j.Request
		m.mu.Unlock()

		body, err := m.cfg.Executor.Execute(jctx, req)
		cancel()

		m.mu.Lock()
		j.cancel = nil
		j.Finished = time.Now()
		switch {
		case err == nil:
			j.ResultBytes = int64(len(body))
			j.body = body
			m.held += int64(len(body))
			m.setStateLocked(j, StateDone)
			m.storeResultLocked(j.Key, body)
			m.book.Finish(req.Tenant, req.Residues, true)
			m.met.TenantServed.With(tenantLabel(req.Tenant)).Add(float64(req.Residues))
			m.finishLocked(j, "done")
		case j.canceled:
			j.Error = context.Canceled.Error()
			m.setStateLocked(j, StateCanceled)
			m.book.Finish(req.Tenant, req.Residues, false)
			m.finishLocked(j, "canceled")
		case m.base.Err() != nil:
			// Shutdown aborted the run: the job goes back to queued so the
			// next boot re-executes it; done stays open.
			j.Started, j.Finished = time.Time{}, time.Time{}
			m.setStateLocked(j, StateQueued)
			m.book.Finish(req.Tenant, req.Residues, false)
			m.q.forcePush(j)
			m.logLocked(j)
		default:
			j.Error = err.Error()
			m.setStateLocked(j, StateFailed)
			m.book.Finish(req.Tenant, req.Residues, false)
			m.finishLocked(j, "failed")
		}
		m.syncTenantLocked(req.Tenant)
		m.met.ExecutorsBusy.Dec()
		if !j.Finished.IsZero() {
			m.met.RunSeconds.Observe(j.Finished.Sub(j.Started).Seconds())
		}
		m.mu.Unlock()
	}
}

// finishLocked records a terminal transition: a done job becomes its key's
// repeat answer and a failed or cancelled one frees the singleflight slot,
// waiters wake, the record retires, the outcome is counted and logged.
func (m *Manager) finishLocked(j *job, outcome string) {
	if j.State == StateDone {
		m.indexDoneLocked(j)
	} else if m.byKey[j.Key] == j {
		delete(m.byKey, j.Key)
	}
	close(j.done)
	m.met.Completed.With(outcome).Inc()
	m.retireLocked(j)
	m.logLocked(j)
}

// storeResultLocked counts and, in durable mode, persists one result body.
func (m *Manager) storeResultLocked(key string, body []byte) {
	m.met.ResultBytes.Observe(float64(len(body)))
	if m.st != nil {
		if err := m.st.saveResult(key, body); err != nil {
			m.met.StoreErrors.Inc()
		}
	}
}

// jobIDKey carries the running job's ID in the context handed to Execute,
// so the executor body can report progress back via SetShards.
type jobIDKey struct{}

// JobID extracts the running job's identifier from an Execute context
// (empty outside an executor).
func JobID(ctx context.Context) string {
	id, _ := ctx.Value(jobIDKey{}).(string)
	return id
}

// Get returns a job's snapshot.
func (m *Manager) Get(id string) (Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j := m.jobs[id]
	if j == nil {
		return Job{}, ErrNotFound
	}
	return j.snapshot(), nil
}

// List returns every tracked job, newest first.
func (m *Manager) List() []Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, j.snapshot())
	}
	sort.Slice(out, func(i, k int) bool {
		if !out[i].Created.Equal(out[k].Created) {
			return out[i].Created.After(out[k].Created)
		}
		return out[i].ID > out[k].ID
	})
	return out
}

// Result returns a done job's encoded result body along with its snapshot:
// the body the record holds, else the store's copy. For a job in any other
// state the body is nil and the caller inspects the snapshot. A done job
// whose result is held nowhere reports an error.
func (m *Manager) Result(id string) ([]byte, Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j := m.jobs[id]
	if j == nil {
		return nil, Job{}, ErrNotFound
	}
	snap := j.snapshot()
	if snap.State != StateDone {
		return nil, snap, nil
	}
	body, ok := m.bodyLocked(j)
	if !ok {
		return nil, snap, fmt.Errorf("jobs: result of %s was evicted", id)
	}
	return body, snap, nil
}

// Cancel aborts a job: a queued job leaves the queue immediately, a running
// one has its context cancelled (the executor records the terminal state
// once Execute unwinds). Terminal jobs are left untouched — Cancel is
// idempotent and returns the current snapshot either way.
func (m *Manager) Cancel(id string) (Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j := m.jobs[id]
	if j == nil {
		return Job{}, ErrNotFound
	}
	m.cancelLocked(j)
	return j.snapshot(), nil
}

func (m *Manager) cancelLocked(j *job) {
	switch j.State {
	case StateQueued:
		if !m.q.remove(j) {
			return // racing executor already popped it; treat as running
		}
		j.canceled = true
		j.Finished = time.Now()
		j.Error = context.Canceled.Error()
		m.setStateLocked(j, StateCanceled)
		m.met.QueueDepth.Set(float64(m.q.len()))
		m.syncTenantLocked(j.Request.Tenant)
		m.finishLocked(j, "canceled")
	case StateRunning:
		j.canceled = true
		if j.cancel != nil {
			j.cancel()
		}
	case StateDone, StateFailed, StateCanceled:
		// Terminal: nothing to abort.
	default:
	}
}

// Wait blocks until the job reaches a terminal state or ctx ends. When the
// last synchronous waiter of a non-async job gives up, the job itself is
// cancelled — a disconnected client must not keep burning a full search.
func (m *Manager) Wait(ctx context.Context, id string) (Job, error) {
	_, snap, err := m.wait(ctx, id)
	return snap, err
}

// WaitResult is Wait for a synchronous submitter (Submit with async=false)
// that also wants the result: a done job's body comes straight from the
// job, which holds it until each such submitter has collected it, so the
// answer never depends on the byte budget. A done job holding no body for
// this waiter is an error.
func (m *Manager) WaitResult(ctx context.Context, id string) ([]byte, Job, error) {
	body, snap, err := m.wait(ctx, id)
	if err == nil && snap.State == StateDone && body == nil {
		err = fmt.Errorf("jobs: %s holds no result for this waiter", id)
	}
	return body, snap, err
}

// wait is Wait, handing over the body the job holds (nil if it holds
// none). Either way out, the waiter counts as one synchronous submitter
// that has collected.
func (m *Manager) wait(ctx context.Context, id string) ([]byte, Job, error) {
	m.mu.Lock()
	j := m.jobs[id]
	if j == nil {
		m.mu.Unlock()
		return nil, Job{}, ErrNotFound
	}
	j.waiters++
	done := j.done
	m.mu.Unlock()
	select {
	case <-done:
		m.mu.Lock()
		defer m.mu.Unlock()
		j.waiters--
		body := j.body
		m.collectLocked(j)
		return body, j.snapshot(), nil
	case <-ctx.Done():
		m.mu.Lock()
		defer m.mu.Unlock()
		j.waiters--
		m.collectLocked(j)
		if j.waiters == 0 && !j.async {
			m.cancelLocked(j)
		}
		return nil, j.snapshot(), ctx.Err()
	}
}

// collectLocked counts one synchronous submitter as served. Its record and
// the body it collected are no longer owed to it, so retention is enforced
// again: the record may be pruned and the held bodies trimmed.
func (m *Manager) collectLocked(j *job) {
	if j.pending > 0 {
		j.pending--
	}
	m.pruneLocked()
	m.trimLocked()
}

// Close drains the Manager: no new submissions are admitted, idle executors
// exit, and running jobs get until ctx ends to finish — past the deadline
// their contexts are cancelled and they return to the queue, to be
// re-executed on the next boot. The durable store is then compacted and
// closed. Close is idempotent.
func (m *Manager) Close(ctx context.Context) error {
	m.mu.Lock()
	if m.stopped {
		m.mu.Unlock()
		return nil
	}
	m.draining = true
	m.cond.Broadcast()
	m.mu.Unlock()

	idle := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(idle)
	}()
	select {
	case <-idle:
	case <-ctx.Done():
		m.abort()
		<-idle
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	m.stopped = true
	if m.st == nil {
		return nil
	}
	m.snapshotLocked()
	return m.st.close()
}
