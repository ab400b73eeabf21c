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
	// queryByID resolves a task's QueryID back to its sequence. With the
	// single-kind workload task IDs equal query indices, but a filtered job
	// holds two tasks per query (prefilter + appended rescore), so lookups
	// go through the query identifier instead of the task ID.
	queryByID map[string]*seq.Sequence
	// qorder is each query's position in the submitted list, for
	// query-ordered result merging.
	qorder map[string]int
	coord  *sched.Coordinator
	events *metrics.EventLog
	// pendingCancel queues cancellations per slave: the protocol is
	// slave-initiated, so a slave learns that its copy of a task became
	// moot on its next Progress or Complete acknowledgement.
	pendingCancel map[sched.SlaveID][]sched.TaskID
	// finished latches the job-done transition so the summary trailer is
	// emitted exactly once.
	finished bool

	// Filtered-search state. filtered selects the two-stage pipeline;
	// filter is the prefilter parameterization shipped with every
	// TaskPrefilter assignment; dbResidues sizes the full-scan baseline
	// the savings accounting compares against.
	filtered   bool
	filter     prefilter.Spec
	dbResidues int64
	fstats     FilterStats
	// stageProgress, when set, is invoked on every accepted stage
	// completion with cumulative done/total counts for that stage.
	stageProgress func(stage string, done, total int64)
	// progress, when set, observes the job's execution progress on every
	// Progress and accepted Complete message: doneCells comes from the
	// pool's finished tally (authoritative — replicated scans are not
	// double-counted) and rate is the reporting slave's instantaneous
	// speed. The cluster backend feeds per-shard progress from it.
	progress func(doneCells int64, rate float64)
	// fmet, when set, receives the master-side savings accounting
	// (prefilter_rescore_cells_saved_total); the per-pass scan metrics are
	// observed slave-side where the work happens.
	fmet *prefilter.Metrics
}

// FilterStats aggregates the filtered pipeline's accounting across the job,
// for reports and the selectivity acceptance check. Zero for full-scan
// jobs.
type FilterStats struct {
	Queries           int   // queries in the job
	PrefilterDone     int   // prefilter tasks with an accepted result
	RescoreDone       int   // rescore tasks with an accepted result
	ResiduesScanned   int64 // database residues streamed through automata
	CandidateResidues int64 // residues admitted for rescoring
	Windows           int   // merged candidate windows across queries
	RescoredCells     int64 // true DP cells the rescore stage computed
	FullScanCells     int64 // DP cells the same queries would cost unfiltered
}

// Selectivity is the fraction of database residues admitted for rescoring.
func (s FilterStats) Selectivity() float64 {
	if s.ResiduesScanned == 0 {
		return 0
	}
	return float64(s.CandidateResidues) / float64(s.ResiduesScanned)
}

// CellsSaved is the DP work the filter avoided versus full scans.
func (s FilterStats) CellsSaved() int64 {
	if saved := s.FullScanCells - s.RescoredCells; saved > 0 {
		return saved
	}
	return 0
}

// NewCore builds the protocol core for a job: one very coarse-grained task
// per query (|query| x database residues cells), all ready. events may be
// nil to discard the structured event stream.
func NewCore(queries []*seq.Sequence, dbResidues int64, sc sched.Config, events *metrics.EventLog) (*Core, error) {
	tasks, err := seedTasks(queries, dbResidues, sched.TaskSW)
	if err != nil {
		return nil, err
	}
	return newCore(queries, dbResidues, tasks, sc, events), nil
}

// NewFilteredCore builds the protocol core for a two-stage filtered job:
// one TaskPrefilter per query, each costing dbResidues *
// sched.PrefilterEquivCells cell-equivalents, with the matching TaskRescore
// appended the moment the prefilter's candidate windows arrive.
func NewFilteredCore(queries []*seq.Sequence, dbResidues int64, filter prefilter.Spec, sc sched.Config, events *metrics.EventLog) (*Core, error) {
	tasks, err := seedTasks(queries, dbResidues, sched.TaskPrefilter)
	if err != nil {
		return nil, err
	}
	c := newCore(queries, dbResidues, tasks, sc, events)
	c.filtered = true
	c.filter = filter.Normalize()
	c.fstats.Queries = len(queries)
	return c, nil
}

// seedTasks builds the initial one-task-per-query set: full scans for
// TaskSW jobs, automaton passes for TaskPrefilter jobs.
func seedTasks(queries []*seq.Sequence, dbResidues int64, kind sched.TaskKind) ([]sched.Task, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("master: no queries")
	}
	if dbResidues <= 0 {
		return nil, fmt.Errorf("master: DBResidues = %d", dbResidues)
	}
	seen := map[string]bool{}
	tasks := make([]sched.Task, len(queries))
	for i, q := range queries {
		if q.Len() == 0 {
			return nil, fmt.Errorf("master: query %d (%s) is empty", i, q.ID)
		}
		// Filtered jobs route rescore state through the query identifier,
		// so those must be unique; plain scans keep the historical
		// task-index identity and tolerate duplicates.
		if kind == sched.TaskPrefilter && seen[q.ID] {
			return nil, fmt.Errorf("master: duplicate query ID %q", q.ID)
		}
		seen[q.ID] = true
		cells := int64(q.Len()) * dbResidues
		if kind == sched.TaskPrefilter {
			cells = dbResidues * sched.PrefilterEquivCells
		}
		tasks[i] = sched.Task{QueryID: q.ID, Cells: cells, Kind: kind}
	}
	return tasks, nil
}

func newCore(queries []*seq.Sequence, dbResidues int64, tasks []sched.Task, sc sched.Config, events *metrics.EventLog) *Core {
	c := &Core{
		queries:       queries,
		queryByID:     make(map[string]*seq.Sequence, len(queries)),
		qorder:        make(map[string]int, len(queries)),
		coord:         sched.NewCoordinator(tasks, sc),
		events:        events,
		pendingCancel: map[sched.SlaveID][]sched.TaskID{},
		dbResidues:    dbResidues,
	}
	for i, q := range queries {
		c.queryByID[q.ID] = q
		c.qorder[q.ID] = i
	}
	return c
}

// SetStageProgress installs the per-stage progress hook (filtered jobs).
// Call before serving traffic; the hook runs inside the dispatch path.
func (c *Core) SetStageProgress(fn func(stage string, done, total int64)) { c.stageProgress = fn }

// SetProgress installs the execution-progress hook. Call before serving
// traffic; the hook runs inside the dispatch path, so keep it fast and
// never call back into the core.
func (c *Core) SetProgress(fn func(doneCells int64, rate float64)) { c.progress = fn }

// SetFilterMetrics attaches the prefilter bundle for master-side savings
// accounting.
func (c *Core) SetFilterMetrics(m *prefilter.Metrics) { c.fmet = m }

// FilterStats returns the filtered pipeline's accounting so far (zero for
// full-scan jobs). Stats reset on checkpoint restore: they describe this
// incarnation's observed traffic, not recomputed history.
func (c *Core) FilterStats() FilterStats { return c.fstats }

// RestoreCore rebuilds a protocol core from a checkpoint snapshot. The
// same queries (in the same order) must be supplied — the checkpoint
// carries only scheduling state, not sequence data — and are verified
// against the snapshot. Finished tasks keep their results; everything else
// re-runs.
func RestoreCore(snap *sched.Snapshot, queries []*seq.Sequence, sc sched.Config, events *metrics.EventLog) (*Core, error) {
	// The first len(queries) tasks are the per-query seeds and must match
	// the query list in order; a filtered job's checkpoint additionally
	// carries the rescore tasks appended before the snapshot, which only
	// need a known query.
	if len(snap.Tasks) < len(queries) {
		return nil, fmt.Errorf("master: checkpoint has %d tasks but %d queries were supplied",
			len(snap.Tasks), len(queries))
	}
	filtered := false
	for i, t := range snap.Tasks[:len(queries)] {
		if t.QueryID != queries[i].ID {
			return nil, fmt.Errorf("master: checkpoint task %d is %q but query %d is %q",
				i, t.QueryID, i, queries[i].ID)
		}
		if t.Kind == sched.TaskPrefilter {
			filtered = true
		}
	}
	if !filtered && len(snap.Tasks) != len(queries) {
		return nil, fmt.Errorf("master: checkpoint has %d tasks but %d queries were supplied",
			len(snap.Tasks), len(queries))
	}
	known := map[string]bool{}
	for _, q := range queries {
		known[q.ID] = true
	}
	for i, t := range snap.Tasks[len(queries):] {
		if t.Kind != sched.TaskRescore {
			return nil, fmt.Errorf("master: checkpoint task %d is an appended %s task; only rescore tasks grow mid-job",
				len(queries)+i, t.Kind)
		}
		if !known[t.QueryID] {
			return nil, fmt.Errorf("master: checkpoint task %d references unknown query %q", len(queries)+i, t.QueryID)
		}
	}
	c := &Core{
		queries:       queries,
		queryByID:     make(map[string]*seq.Sequence, len(queries)),
		qorder:        make(map[string]int, len(queries)),
		coord:         sched.Restore(snap, sc),
		events:        events,
		pendingCancel: map[sched.SlaveID][]sched.TaskID{},
		filtered:      filtered,
	}
	for i, q := range queries {
		c.queryByID[q.ID] = q
		c.qorder[q.ID] = i
	}
	if filtered {
		c.fstats.Queries = len(queries)
		// Reconstruct derived config from the seed tasks: the snapshot
		// stores scheduling state, not the job's Config.
		c.dbResidues = snap.Tasks[0].Cells / sched.PrefilterEquivCells
		// A crash between accepting a prefilter result and the rescore
		// completing leaves a query without a finished rescore task. The
		// windows ride in the prefilter result's payload, so the missing
		// stage is re-created here; duplicates are impossible because
		// AddTasks happened in the same dispatch step as the acceptance.
		haveRescore := map[string]bool{}
		for _, t := range snap.Tasks[len(queries):] {
			haveRescore[t.QueryID] = true
		}
		pool := c.coord.Pool()
		for id := 0; id < len(queries); id++ {
			tid := sched.TaskID(id)
			if pool.StateOf(tid) != sched.Finished || haveRescore[pool.Task(tid).QueryID] {
				continue
			}
			windows, _ := c.resultPayload(tid).([]sched.Window)
			c.appendRescore(pool.Task(tid).QueryID, windows)
		}
	}
	// A job restored already-done never emits a completion summary: the
	// incarnation that finished it did (or died trying).
	c.finished = c.coord.Done()
	return c, nil
}

// resultPayload fetches a finished task's stored payload, nil if absent.
func (c *Core) resultPayload(tid sched.TaskID) any {
	for _, r := range c.coord.Results() {
		if r.Task == tid {
			return r.Payload
		}
	}
	return nil
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
			Caps:          req.Register.Caps,
		}, now)
		return wire.Envelope{RegisterAck: &wire.RegisterAckMsg{Slave: id}}

	case req.Request != nil:
		if badSlave(req.Request.Slave) {
			return wire.Envelope{Error: fmt.Sprintf("unknown slave %d", req.Request.Slave)}
		}
		if e := deadSlave(req.Request.Slave); e != nil {
			return *e
		}
		if c.coord.Done() {
			return wire.Envelope{Assign: &wire.AssignMsg{Done: true}}
		}
		tasks, replica := c.coord.RequestWork(req.Request.Slave, now)
		if len(tasks) == 0 {
			return wire.Envelope{Assign: &wire.AssignMsg{Standby: true, Done: c.coord.Done()}}
		}
		if c.events != nil {
			ids := make([]int, len(tasks))
			for i, t := range tasks {
				ids[i] = int(t.ID)
			}
			_ = c.events.Emit(metrics.Event{
				Kind: metrics.EventAssign, TimeSec: now.Seconds(),
				PE: c.slaveName(req.Request.Slave), Tasks: ids, Replica: replica,
			})
		}
		specs := make([]wire.TaskSpec, len(tasks))
		for i, t := range tasks {
			specs[i] = wire.TaskSpec{
				ID:       t.ID,
				QueryID:  t.QueryID,
				Residues: c.queryFor(t).Residues,
				Cells:    t.Cells,
				TaskKind: t.Kind,
			}
			switch t.Kind {
			case sched.TaskPrefilter:
				f := c.filter
				specs[i].Filter = &f
			case sched.TaskRescore:
				specs[i].Windows = t.Windows
			case sched.TaskSW:
				// Query and cells alone describe a full scan.
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
		// A prefilter task's result is its candidate windows, not hits;
		// storing them as the payload makes checkpoints carry everything
		// needed to reconstruct the missing rescore stage.
		payload := any(req.Complete.Hits)
		if task.Kind == sched.TaskPrefilter {
			payload = req.Complete.Windows
		}
		accepted, canceledSlaves := c.coord.CompleteWork(req.Complete.Slave, req.Complete.Task,
			payload, req.Complete.Cells, req.Complete.Rate, now)
		for _, o := range canceledSlaves {
			c.pendingCancel[o] = append(c.pendingCancel[o], req.Complete.Task)
		}
		if accepted && c.progress != nil {
			c.progress(c.coord.Pool().FinishedCells(), req.Complete.Rate)
		}
		if accepted && c.events != nil {
			_ = c.events.Emit(metrics.Event{
				Kind: metrics.EventExec, PE: c.slaveName(req.Complete.Slave),
				Task: int(req.Complete.Task), TimeSec: startAt.Seconds(),
				EndSec: now.Seconds(), Completed: true,
			})
		}
		if accepted && task.Kind != sched.TaskSW {
			c.completeStage(task, req.Complete, now)
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

// queryFor resolves a task's query sequence. Seed tasks keep the
// historical task-index identity (NewPool renumbers IDs to indices);
// appended rescore tasks resolve through the query identifier.
func (c *Core) queryFor(t sched.Task) *seq.Sequence {
	if int(t.ID) < len(c.queries) {
		return c.queries[t.ID]
	}
	return c.queryByID[t.QueryID]
}

// completeStage handles the filtered-pipeline bookkeeping of one accepted
// non-SW completion: stats, the stage trace event, the per-stage progress
// hook, and — for prefilter tasks — appending the query's rescore task.
// It runs inside Dispatch, so the rescore task joins the pool in the same
// single-threaded step that accepted the prefilter result: the pool is
// never transiently Done between the stages.
func (c *Core) completeStage(task sched.Task, msg *wire.CompleteMsg, now time.Duration) {
	ev := metrics.Event{
		Kind: metrics.EventStage, TimeSec: now.Seconds(),
		PE: c.slaveName(msg.Slave), Task: int(task.ID), Stage: task.Kind.String(),
	}
	switch task.Kind {
	case sched.TaskPrefilter:
		c.fstats.PrefilterDone++
		c.fstats.ResiduesScanned += msg.Scanned
		c.fstats.CandidateResidues += msg.Candidates
		c.fstats.Windows += len(msg.Windows)
		ev.Windows = len(msg.Windows)
		if msg.Scanned > 0 {
			ev.Selectivity = float64(msg.Candidates) / float64(msg.Scanned)
		}
		c.appendRescore(task.QueryID, msg.Windows)
		if c.stageProgress != nil {
			c.stageProgress("prefilter", int64(c.fstats.PrefilterDone), int64(len(c.queries)))
		}
	case sched.TaskRescore:
		c.fstats.RescoreDone++
		c.fstats.RescoredCells += task.Cells
		full := int64(c.queryFor(task).Len()) * c.dbResidues
		c.fstats.FullScanCells += full
		c.fmet.ObserveSaved(full, task.Cells)
		if c.stageProgress != nil {
			c.stageProgress("rescore", int64(c.fstats.RescoreDone), int64(len(c.queries)))
		}
	case sched.TaskSW:
		return
	}
	if c.events != nil {
		_ = c.events.Emit(ev)
	}
}

// appendRescore grows the pool with the rescore task that consumes a
// finished prefilter's windows. A windowless prefilter still appends a
// (1-cell) rescore task so every query's result keeps the full hit-list
// shape — one entry per database sequence, score 0 where nothing was
// admitted — and ranks like a full scan that found nothing.
func (c *Core) appendRescore(queryID string, windows []sched.Window) {
	q := c.queryByID[queryID]
	cells := prefilter.CellsFor(q.Len(), windows)
	if cells < 1 {
		cells = 1
	}
	c.coord.AddTasks([]sched.Task{{
		QueryID: queryID,
		Kind:    sched.TaskRescore,
		Cells:   cells,
		Windows: windows,
	}})
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

// Results merges and returns the per-query outcomes, in query order.
func (c *Core) Results() []QueryResult {
	raw := c.coord.Results()
	out := make([]QueryResult, 0, len(raw))
	replicas := map[sched.TaskID]int{}
	for _, a := range c.coord.AssignmentLog() {
		if a.Replica {
			for _, t := range a.Tasks {
				replicas[t]++
			}
		}
	}
	for _, r := range raw {
		// A prefilter result is an intermediate stage (its payload is the
		// candidate windows); the query's reportable outcome is its
		// rescore task.
		if c.coord.Pool().Task(r.Task).Kind == sched.TaskPrefilter {
			continue
		}
		qr := QueryResult{
			Query:    r.QueryID,
			Slave:    r.Slave,
			Elapsed:  r.At,
			Replicas: replicas[r.Task],
		}
		if hits, ok := r.Payload.([]wire.Hit); ok {
			qr.Hits = append(qr.Hits, hits...)
			wire.SortHits(qr.Hits)
		}
		out = append(out, qr)
	}
	if c.filtered {
		// Rescore task IDs follow prefilter completion order, not query
		// order; restore the submitted order for the merge step.
		sort.SliceStable(out, func(i, j int) bool { return c.qorder[out[i].Query] < c.qorder[out[j].Query] })
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
