package sched

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/metrics"
)

// SlaveKind labels the hardware class of a slave for reports; the scheduler
// itself is agnostic and only looks at observed speeds.
type SlaveKind int

const (
	// KindCPU marks a multicore/SSE slave.
	KindCPU SlaveKind = iota
	// KindGPU marks a GPU slave.
	KindGPU
	// KindFPGA marks a reconfigurable-accelerator slave (the paper's
	// future-work integration, modeled after Meng & Chaudhary [13]).
	KindFPGA
)

// String returns the conventional label of the slave kind.
func (k SlaveKind) String() string {
	switch k {
	case KindCPU:
		return "CPU"
	case KindGPU:
		return "GPU"
	case KindFPGA:
		return "FPGA"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// SlaveInfo is what a slave announces at registration.
type SlaveInfo struct {
	Name string
	Kind SlaveKind
	// DeclaredSpeed is the slave's theoretical speed in cells/second, used
	// by the WFixed baseline and as a fallback before any observation
	// exists. Zero means undeclared.
	DeclaredSpeed float64
}

// Result is one collected task result.
type Result struct {
	Task    TaskID
	QueryID string
	Slave   SlaveID       // who finished first
	At      time.Duration // completion time
	Payload any           // domain result (e.g. per-database-sequence scores)
}

// Assignment records one allocation interaction for traces and the Fig. 5
// style Gantt reconstructions.
type Assignment struct {
	Time    time.Duration
	Slave   SlaveID
	Tasks   []TaskID
	Replica bool // true when granted by the workload adjustment mechanism
}

// Config selects the coordinator's behaviour.
type Config struct {
	Policy Policy // task allocation policy; nil means PSS
	Adjust bool   // enable the workload adjustment mechanism (§IV-A.3)
	Omega  int    // PSS notification window; <1 means DefaultOmega
	// GainThreshold is the minimum estimated completion-time improvement
	// — as a fraction of the requester's own execution time — required
	// before the adjustment mechanism replicates a task. 0 means the
	// default (0.1); negative means replicate on any positive gain.
	// Higher values avoid wasted replicas at the cost of slower rescue.
	GainThreshold float64
	// Metrics receives task-lifecycle counters, pool-depth gauges and
	// per-slave rate gauges (see NewMetrics); nil means NewMetrics(nil), the
	// uninstrumented bundle. The coordinator is clock-agnostic, so the same
	// hooks serve the wall-clock master and the discrete-event runner.
	Metrics *Metrics
}

type slaveState struct {
	info SlaveInfo
	hist *History
	// order lists the slave's live assigned tasks oldest-first (its queue,
	// as far as the master can know it); credit is the cell count the
	// slave has reported done since its last completion. Together they let
	// the workload adjustment mechanism estimate when a given queued task
	// will finish: tasks deep in a backlogged queue have distant ETAs.
	order  []TaskID
	credit int64
	dead   bool
	// lastContact is the time of the slave's most recent protocol
	// interaction; the lease-based failure detector (Expire) declares a
	// slave dead when it stays silent for longer than the lease.
	lastContact time.Duration
}

// assign records a new live task at the back of the slave's queue.
func (s *slaveState) assign(tid TaskID) {
	s.order = append(s.order, tid)
}

// holds reports whether tid is one of the slave's live assigned tasks.
func (s *slaveState) holds(tid TaskID) bool { return slices.Contains(s.order, tid) }

// drop removes a task from the slave's live set, absorbing the progress
// credit the slave accumulated against it.
func (s *slaveState) drop(tid TaskID, cells int64) {
	i := slices.Index(s.order, tid)
	if i < 0 {
		return
	}
	s.order = slices.Delete(s.order, i, i+1)
	s.credit = max(s.credit-cells, 0)
}

// Coordinator is the master-side scheduling state machine (§IV): it
// registers slaves, grants tasks according to the configured policy,
// ingests progress notifications, applies the workload adjustment
// mechanism when the ready queue drains, and collects results (first
// completion wins).
//
// The coordinator is deliberately passive: every method takes `now` and the
// caller (wall-clock master or discrete-event simulation) owns the clock.
// Methods are not safe for concurrent use; wrap with a mutex when driven
// from multiple goroutines.
type Coordinator struct {
	cfg     Config
	pool    *Pool
	slaves  []*slaveState
	results map[TaskID]Result
	log     []Assignment
	// alive counts the registered slaves not declared dead.
	alive int
	// published is this coordinator's current share of the pool gauges
	// (ready, executing, finished, alive slaves); retired pins it to zero.
	published [4]int
	retired   bool
}

// NewCoordinator builds a coordinator over the job's tasks.
func NewCoordinator(tasks []Task, cfg Config) *Coordinator {
	if cfg.Policy == nil {
		cfg.Policy = &PSS{}
	}
	if cfg.Omega < 1 {
		cfg.Omega = DefaultOmega
	}
	if cfg.Metrics == nil {
		cfg.Metrics = NewMetrics(nil)
	}
	c := &Coordinator{
		cfg:     cfg,
		pool:    NewPool(tasks),
		results: make(map[TaskID]Result, len(tasks)),
	}
	c.syncGauges()
	return c
}

// syncGauges refreshes the pool-depth and slave-count gauges after any
// state transition. Cheap enough to call unconditionally from every
// mutating method. Several coordinators (concurrent jobs, one per shard)
// share one registry, so each moves the gauges by the difference from what
// it published last and a gauge reads the sum over live jobs.
func (c *Coordinator) syncGauges() {
	now := [4]int{c.pool.Ready(), c.pool.ExecutingCount(), c.pool.Finished(), c.alive}
	if c.retired {
		now = [4]int{}
	}
	m := c.cfg.Metrics
	for i, g := range [4]*metrics.Gauge{m.ReadyTasks, m.ExecutingTasks, m.FinishedTasks, m.AliveSlaves} {
		if d := now[i] - c.published[i]; d != 0 { // concurrent jobs share these gauges: no CAS for nothing
			g.Add(float64(d))
		}
	}
	c.published = now
}

// RetireGauges withdraws this coordinator's share of the pool gauges for
// good: the owner calls it when the job is torn down, so an idle server
// reads 0 whatever stragglers still dispatch.
func (c *Coordinator) RetireGauges() {
	c.retired = true
	c.syncGauges()
}

// gaugeRate publishes the slave's current speed estimate in GCUPS.
func (c *Coordinator) gaugeRate(id SlaveID) {
	c.cfg.Metrics.SlaveRate.With(c.slaveLabel(id)).Set(c.SpeedOf(id) / 1e9)
}

// slaveLabel is the metric label for a slave: its registered name, or a
// synthetic one when it registered anonymously.
func (c *Coordinator) slaveLabel(id SlaveID) string {
	if name := c.slaves[id].info.Name; name != "" {
		return name
	}
	return fmt.Sprintf("slave%d", int(id))
}

// abandonToPool routes every executor-removal through one place so the
// requeue counter sees each executing->ready fallback exactly once.
func (c *Coordinator) abandonToPool(tid TaskID, sid SlaveID) {
	wasExecuting := c.pool.StateOf(tid) == Executing
	c.pool.Abandon(tid, sid)
	if wasExecuting && c.pool.StateOf(tid) == Ready {
		c.cfg.Metrics.TasksRequeued.Inc()
	}
}

// Pool exposes the underlying task pool (read-mostly; used by reports).
func (c *Coordinator) Pool() *Pool { return c.pool }

// Register adds a slave and returns its ID. The speed history is anchored
// at the registration instant so the first progress delta is divided by
// time the slave actually spent working.
func (c *Coordinator) Register(info SlaveInfo, now time.Duration) SlaveID {
	hist := NewHistory(c.cfg.Omega)
	hist.Anchor(now)
	c.slaves = append(c.slaves, &slaveState{
		info:        info,
		hist:        hist,
		lastContact: now,
	})
	c.alive++
	c.syncGauges()
	return SlaveID(len(c.slaves) - 1)
}

// Slaves returns how many slaves have registered (including dead ones).
func (c *Coordinator) Slaves() int { return len(c.slaves) }

// SlaveInfoOf returns the registration info of a slave.
func (c *Coordinator) SlaveInfoOf(id SlaveID) SlaveInfo { return c.slaves[id].info }

// SpeedOf returns the best current speed estimate for a slave: the Ω-window
// weighted mean if any notifications arrived, otherwise the declared speed,
// otherwise 0 (unknown).
func (c *Coordinator) SpeedOf(id SlaveID) float64 {
	s := c.slaves[id]
	if v, ok := s.hist.Speed(); ok {
		return v
	}
	return s.info.DeclaredSpeed
}

// ProgressRate ingests a directly measured speed sample (cells/second) plus
// the cells completed since the previous notification. Notifications from
// dead (expired) slaves are discarded.
func (c *Coordinator) ProgressRate(id SlaveID, cellsPerSecond float64, cells int64, now time.Duration) {
	s := c.slaves[id]
	if s.dead {
		return
	}
	s.lastContact = now
	s.hist.ObserveRate(cellsPerSecond, now)
	if cells > 0 {
		s.credit += cells
	}
	c.gaugeRate(id)
}

// RequestWork grants tasks to an idle slave. The policy decides how many
// ready tasks the slave receives; when the ready queue is empty and the
// workload adjustment mechanism is enabled, the slave may instead receive a
// copy of a task that is still executing elsewhere (replica = true). An
// empty result with Done() false means the slave should stand by; with
// Done() true the job is over.
func (c *Coordinator) RequestWork(id SlaveID, now time.Duration) (tasks []Task, replica bool) {
	if c.slaves[id].dead {
		return nil, false
	}
	c.slaves[id].lastContact = now
	// Retransmission. The protocol is pull-based — a slave asks for work
	// only when idle — so a request from a slave the coordinator still
	// considers busy means the previous Assign response never reached it
	// (the connection dropped, or the reply was lost, after the grant was
	// recorded). Re-deliver the outstanding tasks instead of granting
	// more: without this those tasks starve forever, because the slave
	// keeps talking (so the lease never expires) and no policy ever
	// grants an executing task a second time.
	if s := c.slaves[id]; len(s.order) > 0 {
		tasks = make([]Task, 0, len(s.order))
		for _, tid := range s.order {
			tasks = append(tasks, c.pool.Task(tid))
		}
		c.cfg.Metrics.TasksRedelivered.Add(float64(len(tasks)))
		return tasks, false
	}
	req := Request{
		Slave:          id,
		Ready:          c.pool.Ready(),
		Total:          c.pool.Len(),
		Slaves:         c.alive,
		Speeds:         make([]float64, len(c.slaves)),
		DeclaredSpeeds: make([]float64, len(c.slaves)),
	}
	for i, s := range c.slaves {
		if s.dead {
			continue
		}
		if v, ok := s.hist.Speed(); ok {
			req.Speeds[i] = v
		}
		req.DeclaredSpeeds[i] = s.info.DeclaredSpeed
	}
	n := c.cfg.Policy.Grant(req)
	if n == 0 && req.Ready > 0 {
		// Recovery grant: static policies (Fixed/WFixed) hand out their
		// quota once, so a task requeued later — because a slave died or
		// abandoned it — would otherwise be stranded with no policy
		// willing to grant it. Any idle slave asking while ready tasks
		// exist gets one, degrading gracefully to self-scheduling for the
		// recovered tail.
		n = 1
	}
	if n > 0 {
		tasks = c.pool.TakeReady(n, id, now)
		for _, t := range tasks {
			c.slaves[id].assign(t.ID)
		}
		if len(tasks) > 0 {
			c.log = append(c.log, Assignment{Time: now, Slave: id, Tasks: taskIDs(tasks)})
			c.cfg.Metrics.TasksAssigned.Add(float64(len(tasks)))
			c.syncGauges()
			return tasks, false
		}
	}
	if c.pool.Ready() == 0 && c.cfg.Adjust {
		if tid, ok := c.selectReplica(id, now); ok {
			c.pool.AddExecutor(tid, id, now)
			c.slaves[id].assign(tid)
			c.log = append(c.log, Assignment{Time: now, Slave: id, Tasks: []TaskID{tid}, Replica: true})
			c.cfg.Metrics.TasksReplicated.Inc()
			return []Task{c.pool.Task(tid)}, true
		}
	}
	return nil, false
}

// selectReplica implements the workload adjustment choice: among tasks in
// the executing state that the requester is not already running, pick the
// one whose estimated completion time the requester would improve the most.
//
// A task's completion estimate on a current executor accounts for queue
// position and reported progress: ETA = now + (cells of the executor's live
// tasks up to and including this one, minus its progress credit) / speed.
// The requester would start fresh: myETA = now + cells/speed(requester). A
// replica is only worthwhile when the gain clears 10% of the requester's
// own execution time, which stops equally-slow peers from replicating each
// other's nearly-finished tasks on speed-estimate noise.
//
// When speeds are unknown the estimates degenerate and the longest-assigned
// task is chosen, matching the paper's plain description of the mechanism.
func (c *Coordinator) selectReplica(id SlaveID, now time.Duration) (TaskID, bool) {
	vr := c.SpeedOf(id)
	bestGain := time.Duration(-1 << 62)
	bestID := TaskID(-1)
	var oldestStart time.Duration = 1 << 62
	var oldestID TaskID = -1
	for _, tid := range c.pool.ExecutingTasks() {
		execs := c.pool.Executors(tid)
		if _, mine := execs[id]; mine {
			continue
		}
		task := c.pool.Task(tid)
		// Earliest estimated completion among current executors.
		var bestETA time.Duration = 1 << 62
		known := false
		var earliestStart time.Duration = 1 << 62
		for sid, start := range execs {
			if start < earliestStart {
				earliestStart = start
			}
			ve := c.SpeedOf(sid)
			if ve <= 0 {
				continue
			}
			remaining := c.backlogThrough(sid, tid)
			eta := now + time.Duration(float64(remaining)/ve*float64(time.Second))
			known = true
			if eta < bestETA {
				bestETA = eta
			}
		}
		if earliestStart < oldestStart {
			oldestStart, oldestID = earliestStart, tid
		}
		if vr <= 0 || !known {
			continue
		}
		myDur := time.Duration(float64(task.Cells) / vr * float64(time.Second))
		gain := bestETA - (now + myDur)
		threshold := time.Duration(float64(myDur) * c.gainThreshold())
		if gain > threshold && gain > bestGain {
			bestGain, bestID = gain, tid
		}
	}
	if bestID >= 0 {
		return bestID, true
	}
	if vr <= 0 && oldestID >= 0 {
		// No speed information at all: fall back to replicating the task
		// that has been assigned the longest.
		return oldestID, true
	}
	return -1, false
}

// gainThreshold resolves the configured replication threshold.
func (c *Coordinator) gainThreshold() float64 {
	switch {
	case c.cfg.GainThreshold > 0:
		return c.cfg.GainThreshold
	case c.cfg.GainThreshold < 0:
		return 0
	default:
		return 0.1
	}
}

// backlogThrough estimates the cells slave sid must still process before
// task tid completes: the cells of its live queue up to and including tid,
// less the progress it has reported.
func (c *Coordinator) backlogThrough(sid SlaveID, tid TaskID) int64 {
	s := c.slaves[sid]
	var sum int64
	for _, id := range s.order {
		sum += c.pool.Task(id).Cells
		if id == tid {
			break
		}
	}
	sum -= s.credit
	if sum < 0 {
		sum = 0
	}
	return sum
}

// Complete records that a slave finished a task. accepted is false when
// another copy already finished (the result is discarded). cancel lists the
// slaves still executing moot copies; the caller should notify them so they
// can abandon the work and request something useful.
func (c *Coordinator) Complete(id SlaveID, tid TaskID, payload any, now time.Duration) (accepted bool, cancel []SlaveID) {
	task := c.pool.Task(tid)
	if !c.slaves[id].dead {
		c.slaves[id].lastContact = now
	}
	if !c.slaves[id].holds(tid) {
		// A completion for a task this slave does not hold: either the
		// task already finished elsewhere (normal race) or the slave is
		// confused/malicious. Either way the result is discarded.
		return false, nil
	}
	c.slaves[id].drop(tid, task.Cells)
	if c.pool.StateOf(tid) == Finished {
		return false, nil
	}
	first, others := c.pool.Complete(tid, id, now)
	if !first {
		return false, nil
	}
	c.results[tid] = Result{Task: tid, QueryID: task.QueryID, Slave: id, At: now, Payload: payload}
	for _, o := range others {
		c.slaves[o].drop(tid, task.Cells)
	}
	c.cfg.Metrics.TasksCompleted.Inc()
	c.syncGauges()
	return true, others
}

// CompleteWork is Complete plus the final progress delta the slave
// measured since its last notification. Before this existed, the cells a
// slave processed between its last periodic notification and the task's
// completion were silently lost, so PSS speed estimates and the backlog
// accounting undercounted short tasks. cells and rate come straight off
// the wire (wire.CompleteMsg); zero values mean "no delta to report".
func (c *Coordinator) CompleteWork(id SlaveID, tid TaskID, payload any, cells int64, rate float64, now time.Duration) (accepted bool, cancel []SlaveID) {
	s := c.slaves[id]
	if !s.dead && s.holds(tid) {
		if rate > 0 {
			s.hist.ObserveRate(rate, now)
		} else if cells > 0 {
			s.hist.Observe(cells, now)
		}
		if cells > 0 {
			s.credit += cells
		}
		// Publish the refreshed estimate: tasks short enough to finish
		// inside one notification interval would otherwise never move the
		// per-slave rate gauge.
		c.gaugeRate(id)
	}
	return c.Complete(id, tid, payload, now)
}

// SlaveDied removes a slave: its executing tasks lose an executor and
// return to ready if no other copy runs (the paper's future-work item of
// nodes leaving mid-run).
func (c *Coordinator) SlaveDied(id SlaveID) {
	s := c.slaves[id]
	if s.dead {
		return
	}
	s.dead = true
	c.alive--
	// Pool.Abandon pushes onto the head of the ready FIFO, so walking the
	// queue back to front leaves the oldest assignment at the head and the
	// survivors pick the work up in the order it was first granted.
	for i := len(s.order) - 1; i >= 0; i-- {
		c.abandonToPool(s.order[i], id)
	}
	s.order = nil
	s.credit = 0
	c.cfg.Metrics.SlaveRate.With(c.slaveLabel(id)).Set(0)
	c.syncGauges()
}

// Expire is the lease-based failure detector: every slave silent for
// longer than lease is declared dead via the SlaveDied path (its tasks
// requeue) and reported. The paper's environment assumes slaves either
// answer or their connection drops; Expire additionally catches the hung
// slave — process alive, socket open, no progress — that would otherwise
// stall its executing tasks forever when the workload adjustment mechanism
// is off. The lease must comfortably exceed the slaves' notification and
// standby-poll intervals or healthy-but-quiet slaves get reaped.
//
// Like every Coordinator method it is clock-agnostic: the wall-clock
// master drives it from a ticker and the discrete-event runner from a
// recurring simulated event, so both clocks exercise the same code.
func (c *Coordinator) Expire(now, lease time.Duration) []SlaveID {
	if lease <= 0 {
		return nil
	}
	var expired []SlaveID
	for i, s := range c.slaves {
		if s.dead || now-s.lastContact <= lease {
			continue
		}
		c.SlaveDied(SlaveID(i))
		expired = append(expired, SlaveID(i))
		c.cfg.Metrics.LeaseExpirations.Inc()
	}
	return expired
}

// Dead reports whether a slave has been declared dead (connection drop or
// lease expiry). A dead slave's ID is never reused; a returning slave must
// re-register for a fresh one.
func (c *Coordinator) Dead(id SlaveID) bool { return c.slaves[id].dead }

// LastContact returns the time of the slave's most recent protocol
// interaction.
func (c *Coordinator) LastContact(id SlaveID) time.Duration {
	return c.slaves[id].lastContact
}

// Done reports whether every task has a result.
func (c *Coordinator) Done() bool { return c.pool.Done() }

// Results returns the collected results ordered by task ID (the master's
// "merge results" step).
func (c *Coordinator) Results() []Result {
	out := make([]Result, 0, len(c.results))
	for _, r := range c.results {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Task < out[j].Task })
	return out
}

// AssignmentLog returns every allocation interaction in time order.
func (c *Coordinator) AssignmentLog() []Assignment { return c.log }

func taskIDs(ts []Task) []TaskID {
	out := make([]TaskID, len(ts))
	for i, t := range ts {
		out[i] = t.ID
	}
	return out
}
