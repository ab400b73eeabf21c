package master

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/metrics"
	"repro/internal/prefilter"
	"repro/internal/sched"
	"repro/internal/seq"
	"repro/internal/wire"
)

// Core is the master's protocol state machine with the clock factored out:
// one envelope in, one envelope out, with the current time passed as an
// argument. It is deliberately single-threaded and performs no I/O — the
// same discipline sched.Coordinator follows — so the identical dispatch
// code serves two drivers:
//
//   - Master wraps a Core with a mutex and the wall clock for real TCP and
//     in-process slaves;
//   - the deterministic cluster simulator (internal/sim) drives a Core from
//     a virtual-time event loop, where reproducibility demands that no
//     goroutine or wall-clock read sneaks onto the decision path.
//
// Methods are not safe for concurrent use; the driver owns the locking.
type Core struct {
	queries []*seq.Sequence
	// perQuery is how many tasks each query has: one per database range.
	// Task t belongs to query t / perQuery, which is how results merge by
	// query index and duplicate query IDs stay legal.
	perQuery int
	coord    *sched.Coordinator
	events   *metrics.EventLog
	// pendingCancel queues cancellations per slave: the protocol is
	// slave-initiated, so a slave learns that its copy of a task became
	// moot on its next Progress or Complete acknowledgement.
	pendingCancel map[sched.SlaveID][]sched.TaskID
	// finished latches the job-done transition so the summary trailer is
	// emitted exactly once.
	finished bool

	// Filtered-search state: filtered marks a job of TaskFiltered tasks,
	// filter is the prefilter parameterization shipped with every one of
	// them, fstats the accounting of the accepted ranges and sitOut the
	// slaves that registered without Filters, which are told the job is
	// done instead of being granted work they cannot run.
	filtered bool
	filter   prefilter.Spec
	fstats   FilterStats
	sitOut   map[sched.SlaveID]bool
	// progress, when set, observes the job's execution progress on every
	// Progress and accepted Complete message: doneCells comes from the
	// pool's finished tally (authoritative — replicated scans are not
	// double-counted) and rate is the reporting slave's instantaneous
	// speed. The cluster backend feeds per-shard progress from it.
	progress func(doneCells int64, rate float64)
	// fmet receives the master-side savings accounting
	// (prefilter_rescore_cells_saved_total); the per-pass scan metrics are
	// observed slave-side where the work happens.
	fmet *prefilter.Metrics
}

// FilterStats aggregates the filtered pipeline's accounting across the job,
// for reports and the selectivity acceptance check. Zero for full-scan
// jobs.
type FilterStats struct {
	Queries int // queries in the job
	prefilter.Tally
}

// NewCore builds the protocol core for a full-scan job: one task per query
// and database range (|query| x range residues cells), all ready, query by
// query. Nil ranges mean one whole-database range — the paper's very
// coarse-grained task per query. events may be nil to discard the
// structured event stream.
func NewCore(queries []*seq.Sequence, dbResidues int64, ranges []Range, sc sched.Config, events *metrics.EventLog) (*Core, error) {
	return newJobCore(queries, dbResidues, ranges, sched.TaskSW, sc, events)
}

// NewFilteredCore builds the protocol core for a filtered job: NewCore's
// tasks with kind TaskFiltered, each costing its range's residues x
// sched.PrefilterEquivCells cell-equivalents. A filtered task prefilters
// its range and rescores the candidate windows on the same engine.
func NewFilteredCore(queries []*seq.Sequence, dbResidues int64, ranges []Range, filter prefilter.Spec, sc sched.Config, events *metrics.EventLog) (*Core, error) {
	c, err := newJobCore(queries, dbResidues, ranges, sched.TaskFiltered, sc, events)
	if err != nil {
		return nil, err
	}
	c.filtered = true
	c.filter = filter.Normalize()
	c.fstats.Queries = len(queries)
	c.sitOut = map[sched.SlaveID]bool{}
	return c, nil
}

// newJobCore seeds the job's tasks, query-major: one per query and range,
// of the given kind.
func newJobCore(queries []*seq.Sequence, dbResidues int64, ranges []Range, kind sched.TaskKind, sc sched.Config, events *metrics.EventLog) (*Core, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("master: no queries")
	}
	if dbResidues <= 0 {
		return nil, fmt.Errorf("master: DBResidues = %d", dbResidues)
	}
	if ranges == nil {
		// The zero range, Lo = Hi = 0, is the whole database.
		ranges = []Range{{Residues: dbResidues}}
	} else if err := checkRanges(ranges, dbResidues); err != nil {
		return nil, err
	}
	tasks := make([]sched.Task, 0, len(queries)*len(ranges))
	for i, q := range queries {
		if q.Len() == 0 {
			return nil, fmt.Errorf("master: query %d (%s) is empty", i, q.ID)
		}
		for _, r := range ranges {
			cells := int64(q.Len()) * r.Residues
			if kind == sched.TaskFiltered {
				cells = r.Residues * sched.PrefilterEquivCells
			}
			tasks = append(tasks, sched.Task{QueryID: q.ID, Cells: cells, Lo: r.Lo, Hi: r.Hi, Kind: kind})
		}
	}
	return newCore(queries, len(ranges), sched.NewCoordinator(tasks, sc), events), nil
}

// checkRanges verifies that a cut is contiguous from sequence 0, has no
// empty range and accounts for every database residue, so the tasks seeded
// from it cover the database exactly once and their cells add up.
func checkRanges(ranges []Range, dbResidues int64) error {
	var residues int64
	next := 0
	for i, r := range ranges {
		if r.Lo != next || r.Hi <= r.Lo || r.Residues < 0 {
			return fmt.Errorf("master: range %d is [%d,%d) with %d residues after a cut ending at %d", i, r.Lo, r.Hi, r.Residues, next)
		}
		next = r.Hi
		residues += r.Residues
	}
	if residues != dbResidues {
		return fmt.Errorf("master: ranges hold %d residues, DBResidues = %d", residues, dbResidues)
	}
	return nil
}

func newCore(queries []*seq.Sequence, perQuery int, coord *sched.Coordinator, events *metrics.EventLog) *Core {
	return &Core{
		queries:       queries,
		perQuery:      perQuery,
		coord:         coord,
		events:        events,
		pendingCancel: map[sched.SlaveID][]sched.TaskID{},
		fmet:          prefilter.NewMetrics(nil),
	}
}

// SetProgress installs the execution-progress hook. Call before serving
// traffic; the hook runs inside the dispatch path, so keep it fast and
// never call back into the core.
func (c *Core) SetProgress(fn func(doneCells int64, rate float64)) { c.progress = fn }

// SetFilterMetrics attaches the prefilter bundle for master-side savings
// accounting.
func (c *Core) SetFilterMetrics(m *prefilter.Metrics) { c.fmet = m }

// FilterStats returns the filtered pipeline's accounting so far (zero for
// full-scan jobs).
func (c *Core) FilterStats() FilterStats { return c.fstats }

// RestoreCore rebuilds a full-scan job's protocol core from a checkpoint
// snapshot. The same queries (in the same order) and the same cut must be
// supplied — the checkpoint carries only scheduling state, not sequence
// data — and are verified against the snapshot. A checkpoint from before
// range tasks has no range fields and restores under nil ranges as
// whole-database tasks. Finished tasks keep their results; everything else
// re-runs. Filtered jobs do not restore: their checkpoints are refused.
func RestoreCore(snap *sched.Snapshot, queries []*seq.Sequence, ranges []Range, sc sched.Config, events *metrics.EventLog) (*Core, error) {
	if ranges == nil {
		// One task per query, carrying the zero range.
		ranges = []Range{{}}
	}
	perQuery := len(ranges)
	if len(snap.Tasks) != len(queries)*perQuery {
		return nil, fmt.Errorf("master: checkpoint has %d tasks but %d queries x %d ranges were supplied",
			len(snap.Tasks), len(queries), perQuery)
	}
	for i, t := range snap.Tasks {
		if t.Kind != sched.TaskSW {
			return nil, fmt.Errorf("master: checkpoint task %d is a %s task; only full-scan jobs restore from checkpoints", i, t.Kind)
		}
		if qi := i / perQuery; t.QueryID != queries[qi].ID {
			return nil, fmt.Errorf("master: checkpoint task %d is %q but query %d is %q",
				i, t.QueryID, qi, queries[qi].ID)
		}
		if want := ranges[i%perQuery]; t.Lo != want.Lo || t.Hi != want.Hi {
			return nil, fmt.Errorf("master: checkpoint task %d scans [%d,%d) but the cut says [%d,%d)",
				i, t.Lo, t.Hi, want.Lo, want.Hi)
		}
	}
	c := newCore(queries, perQuery, sched.Restore(snap, sc), events)
	// A job restored already-done never emits a completion summary: the
	// incarnation that finished it did (or died trying).
	c.finished = c.coord.Done()
	return c, nil
}

// Dispatch is the single protocol entry point: it applies one request
// envelope at virtual or wall time now and returns the response. Malformed
// messages (unknown slave or task IDs) get an error envelope instead of
// crashing the server: the master faces the network.
func (c *Core) Dispatch(req wire.Envelope, now time.Duration) wire.Envelope {
	badSlave := func(id sched.SlaveID) bool {
		return id < 0 || int(id) >= c.coord.Slaves()
	}
	badTask := func(id sched.TaskID) bool {
		return id < 0 || int(id) >= c.coord.Pool().Len()
	}
	// deadSlave answers a lease-expired or disconnected slave with an
	// explicit error so a hung-then-recovered slave learns its ID is gone
	// and re-registers for a fresh one instead of polling forever.
	deadSlave := func(id sched.SlaveID) *wire.Envelope {
		if !c.coord.Dead(id) {
			return nil
		}
		return &wire.Envelope{Error: fmt.Sprintf("slave %d expired; re-register", id)}
	}
	switch {
	case req.Register != nil:
		id := c.coord.Register(sched.SlaveInfo{
			Name:          req.Register.Name,
			Kind:          req.Register.Kind,
			DeclaredSpeed: req.Register.DeclaredSpeed,
		}, now)
		if c.filtered && !req.Register.Filters {
			c.sitOut[id] = true
		}
		return wire.Envelope{RegisterAck: &wire.RegisterAckMsg{Slave: id}}

	case req.Request != nil:
		if badSlave(req.Request.Slave) {
			return wire.Envelope{Error: fmt.Sprintf("unknown slave %d", req.Request.Slave)}
		}
		if e := deadSlave(req.Request.Slave); e != nil {
			return *e
		}
		if c.coord.Done() || c.sitOut[req.Request.Slave] {
			return wire.Envelope{Assign: &wire.AssignMsg{Done: true}}
		}
		tasks, replica := c.coord.RequestWork(req.Request.Slave, now)
		if len(tasks) == 0 {
			return wire.Envelope{Assign: &wire.AssignMsg{Standby: true, Done: c.coord.Done()}}
		}
		c.emitAssign(req.Request.Slave, tasks, replica, now)
		specs := make([]wire.TaskSpec, len(tasks))
		for i, t := range tasks {
			specs[i] = wire.TaskSpec{
				ID:       t.ID,
				QueryID:  t.QueryID,
				Residues: c.queryFor(t).Residues,
				Cells:    t.Cells,
				Lo:       t.Lo,
				Hi:       t.Hi,
				TaskKind: t.Kind,
			}
			if c.filtered {
				f := c.filter
				specs[i].Filter = &f
			}
		}
		return wire.Envelope{Assign: &wire.AssignMsg{Tasks: specs, Replica: replica}}

	case req.Progress != nil:
		if badSlave(req.Progress.Slave) {
			return wire.Envelope{Error: fmt.Sprintf("unknown slave %d", req.Progress.Slave)}
		}
		if e := deadSlave(req.Progress.Slave); e != nil {
			return *e
		}
		c.coord.ProgressRate(req.Progress.Slave, req.Progress.Rate, req.Progress.Cells, now)
		if c.progress != nil {
			c.progress(c.coord.Pool().FinishedCells(), req.Progress.Rate)
		}
		if c.events != nil {
			_ = c.events.Emit(metrics.Event{
				Kind: metrics.EventSample, TimeSec: now.Seconds(),
				PE: c.slaveName(req.Progress.Slave), GCUPS: req.Progress.Rate / 1e9,
			})
		}
		return wire.Envelope{ProgressAck: &wire.ProgressAckMsg{
			Cancel: c.takeCancels(req.Progress.Slave),
			Done:   c.coord.Done(),
		}}

	case req.Complete != nil:
		if badSlave(req.Complete.Slave) {
			return wire.Envelope{Error: fmt.Sprintf("unknown slave %d", req.Complete.Slave)}
		}
		if badTask(req.Complete.Task) {
			return wire.Envelope{Error: fmt.Sprintf("unknown task %d", req.Complete.Task)}
		}
		if e := deadSlave(req.Complete.Slave); e != nil {
			return *e
		}
		// Capture the executor's start time before CompleteWork clears it,
		// so the exec event carries the full occupancy window.
		var startAt time.Duration
		if c.events != nil {
			if st, ok := c.coord.Pool().Executors(req.Complete.Task)[req.Complete.Slave]; ok {
				startAt = st
			}
		}
		task := c.coord.Pool().Task(req.Complete.Task)
		accepted, canceledSlaves := c.coord.CompleteWork(req.Complete.Slave, req.Complete.Task,
			req.Complete.Hits, req.Complete.Cells, req.Complete.Rate, now)
		for _, o := range canceledSlaves {
			c.pendingCancel[o] = append(c.pendingCancel[o], req.Complete.Task)
		}
		if accepted && c.progress != nil {
			c.progress(c.coord.Pool().FinishedCells(), req.Complete.Rate)
		}
		if accepted && c.events != nil {
			ev := metrics.Event{
				Kind: metrics.EventExec, PE: c.slaveName(req.Complete.Slave),
				Task: int(req.Complete.Task), TimeSec: startAt.Seconds(),
				EndSec: now.Seconds(), Completed: true,
			}
			if task.Hi > 0 {
				ev.Query, ev.Lo, ev.Hi = task.QueryID, task.Lo, task.Hi
			}
			if c.filtered {
				ev.Windows, ev.Selectivity = req.Complete.Filter.Windows, req.Complete.Filter.Selectivity()
			}
			_ = c.events.Emit(ev)
		}
		if accepted && c.filtered {
			c.completeFiltered(task, req.Complete.Filter)
		}
		if c.coord.Done() && !c.finished {
			c.finished = true
			c.emitSummary(now)
		}
		return wire.Envelope{CompleteAck: &wire.CompleteAckMsg{
			Accepted: accepted,
			Cancel:   c.takeCancels(req.Complete.Slave),
			Done:     c.coord.Done(),
		}}

	default:
		return wire.Envelope{Error: "unknown message"}
	}
}

// queryFor resolves a task's query sequence. Tasks are laid out
// query-major with perQuery tasks each (NewPool renumbers IDs to indices),
// so the query is a function of the task index.
func (c *Core) queryFor(t sched.Task) *seq.Sequence {
	return c.queries[int(t.ID)/c.perQuery]
}

// emitAssign records one grant in the event stream. Whole-database tasks
// keep the historical shape, one record listing the grant's task IDs; a
// range task gets a record of its own naming the query and [lo,hi), so the
// log shows which engine was handed which range — and, read against the
// exec records, which copy of a replicated range lost.
func (c *Core) emitAssign(slave sched.SlaveID, tasks []sched.Task, replica bool, now time.Duration) {
	if c.events == nil {
		return
	}
	ev := metrics.Event{Kind: metrics.EventAssign, TimeSec: now.Seconds(), PE: c.slaveName(slave), Replica: replica}
	if tasks[0].Hi == 0 {
		ev.Tasks = make([]int, len(tasks))
		for i, t := range tasks {
			ev.Tasks[i] = int(t.ID)
		}
		_ = c.events.Emit(ev)
		return
	}
	for _, t := range tasks {
		ev.Tasks = []int{int(t.ID)}
		ev.Query, ev.Lo, ev.Hi = t.QueryID, t.Lo, t.Hi
		_ = c.events.Emit(ev)
	}
}

// completeFiltered folds one accepted filtered range into the job's
// accounting.
func (c *Core) completeFiltered(task sched.Task, t prefilter.Tally) {
	t.FullScanCells = int64(c.queryFor(task).Len()) * (task.Cells / sched.PrefilterEquivCells)
	c.fstats.Add(t)
	c.fmet.ObserveSaved(t.FullScanCells, t.RescoredCells)
}

// SlaveGone records a dropped connection: the slave's tasks return to the
// pool (the paper's future-work scenario of nodes leaving mid-run). It
// reports whether the slave was newly declared dead, so drivers can count
// deaths without double-counting lease expiries.
func (c *Core) SlaveGone(id sched.SlaveID) bool {
	if id < 0 || int(id) >= c.coord.Slaves() {
		return false
	}
	if c.coord.Dead(id) {
		return false
	}
	c.coord.SlaveDied(id)
	return true
}

// Expire drives the coordinator's lease-based failure detector.
func (c *Core) Expire(now, lease time.Duration) []sched.SlaveID {
	return c.coord.Expire(now, lease)
}

// Done reports whether every task has a result.
func (c *Core) Done() bool { return c.coord.Done() }

// Coordinator exposes the scheduling state for reports and invariant
// checks. Callers must respect the driver's locking discipline.
func (c *Core) Coordinator() *sched.Coordinator { return c.coord }

// Snapshot captures the job's durable state (task set + collected
// results).
func (c *Core) Snapshot() *sched.Snapshot { return c.coord.Snapshot() }

// Results merges and returns the per-query outcomes, in query order. A
// full-scan query's range results merge by query index — duplicate query
// IDs stay legal — under the module-wide ranking contract (wire.HitLess on
// the resident database's sequence index), so the merged list reads as one
// whole-database scan's: Replicas sums over the ranges, Elapsed is the last
// range's completion and Slave is who delivered it. Every range kept its
// own top-k, so the list holds up to k hits per range; the caller that
// knows k cuts it.
func (c *Core) Results() []QueryResult {
	raw := c.coord.Results()
	out := make([]QueryResult, 0, len(c.queries))
	replicas := map[sched.TaskID]int{}
	for _, a := range c.coord.AssignmentLog() {
		if a.Replica {
			for _, t := range a.Tasks {
				replicas[t]++
			}
		}
	}
	lastQuery := -1
	for _, r := range raw {
		// raw is in task order, so a query's range results are adjacent.
		if qi := int(r.Task) / c.perQuery; qi != lastQuery {
			out = append(out, QueryResult{Query: r.QueryID})
			lastQuery = qi
		}
		qr := &out[len(out)-1]
		if r.At >= qr.Elapsed {
			qr.Elapsed, qr.Slave = r.At, r.Slave
		}
		qr.Replicas += replicas[r.Task]
		if hits, ok := r.Payload.([]wire.Hit); ok {
			qr.Hits = append(qr.Hits, hits...)
		}
	}
	for i := range out {
		wire.SortHits(out[i].Hits)
	}
	return out
}

// slaveName is the event-stream PE label for a slave: its registered name,
// or a synthetic one when it registered anonymously. IDs outside the
// current slave table are possible after a checkpoint restore — results
// restored from the snapshot credit slaves of the previous incarnation,
// whose registrations were deliberately not captured.
func (c *Core) slaveName(id sched.SlaveID) string {
	if id >= 0 && int(id) < c.coord.Slaves() {
		if name := c.coord.SlaveInfoOf(id).Name; name != "" {
			return name
		}
	}
	return fmt.Sprintf("slave%d", int(id))
}

// emitSummary closes the event stream with per-slave and overall summary
// lines, mirroring platform.WriteTrace's trailer. Per-slave lines are
// ordered by slave ID so the stream is deterministic — the simulator
// asserts byte-identical logs across reruns of a seed.
func (c *Core) emitSummary(now time.Duration) {
	if c.events == nil {
		return
	}
	won := map[sched.SlaveID]int{}
	var cells int64
	for _, r := range c.coord.Results() {
		won[r.Slave]++
		cells += c.coord.Pool().Task(r.Task).Cells
	}
	ids := make([]sched.SlaveID, 0, len(won))
	for id := range won {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		_ = c.events.Emit(metrics.Event{Kind: metrics.EventSummary, PE: c.slaveName(id), TasksWon: won[id]})
	}
	overall := metrics.Event{Kind: metrics.EventSummary, MakespanSec: now.Seconds(), CellsDone: cells}
	if now > 0 {
		overall.TotalGCUPS = float64(cells) / now.Seconds() / 1e9
	}
	_ = c.events.Emit(overall)
}

// takeCancels pops the queued cancellations for a slave.
func (c *Core) takeCancels(id sched.SlaveID) []sched.TaskID {
	out := c.pendingCancel[id]
	delete(c.pendingCancel, id)
	return out
}
