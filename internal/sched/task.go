// Package sched implements the paper's task-execution core: the task pool
// with its ready/executing/finished lifecycle, the user-selectable task
// allocation policies (SS, PSS, and the Fixed/WFixed baselines from related
// work), the Ω-window weighted speed estimator that feeds PSS, and the
// dynamic workload-adjustment mechanism that re-assigns still-executing
// tasks to idle processing elements.
//
// The package is a pure state machine: every method takes the current time
// as an argument and performs no I/O, no sleeping and no goroutines. The
// same code therefore drives both the wall-clock master (internal/master)
// and the calibrated discrete-event experiments (internal/platform), which
// is what makes the reproduced scheduling results meaningful.
package sched

import (
	"fmt"
	"sort"
	"time"
)

// TaskID identifies a task within one job.
type TaskID int

// SlaveID identifies a registered slave within one coordinator.
type SlaveID int

// TaskKind classifies the work a task carries. The paper's environment has
// exactly one shape of work — a Smith-Waterman scan of the query against
// the database — and filtered search adds one more over the same ranges: an
// k-mer seed prefilter followed by a Smith-Waterman rescore of the
// candidate windows it admitted. The scheduler routes kinds by slave
// capability (SlaveInfo.Caps) and otherwise treats them uniformly through
// the shared cell currency.
type TaskKind int

const (
	// TaskSW is a full Smith-Waterman scan of the query against the task's
	// database range — the whole database in the paper's only task shape.
	TaskSW TaskKind = 0
	// TaskFiltered prefilters the task's database range with the query's
	// k-mer seeds and rescores the candidate windows on the same engine.
	// Values 1 and 2 named the separate prefilter and rescore stages of
	// older binaries; skipping them means a slave built before the fused
	// kind never declares it, so it is never granted one, and fails
	// loudly with "unknown task kind" if handed one anyway.
	TaskFiltered TaskKind = 3
)

// String returns the kind name used in logs, traces and metric labels.
func (k TaskKind) String() string {
	switch k {
	case TaskSW:
		return "sw"
	case TaskFiltered:
		return "filtered"
	default:
		return fmt.Sprintf("TaskKind(%d)", int(k))
	}
}

// PrefilterEquivCells is the cost model of filtered tasks: scanning one
// database residue for seeds costs roughly this many Smith-Waterman cell
// updates (a shift, a hash and a bitmap test versus the DP cell's adds and
// maxes). Task.Cells is always denominated in SW-cell
// equivalents, so one speed estimator, one backlog model and one GCUPS
// currency serve every kind: a filtered task over R database residues is
// created with Cells = R * PrefilterEquivCells, while TaskSW tasks carry
// true DP cell counts. The rescore of the admitted windows is not known
// until the scan has run, so it rides in the same budget.
const PrefilterEquivCells = 8

// Task is one schedulable work unit: the comparison of one query sequence
// against one contiguous range of the database. In the paper's workload the
// range is the whole genomic database (§IV, very coarse-grained); a serving
// fleet cuts it finer so one query occupies every engine. Filtered search
// runs over the same cut with its own task kind.
type Task struct {
	ID      TaskID
	QueryID string // identifier of the query sequence
	Cells   int64  // scheduling cost in SW-cell equivalents (see PrefilterEquivCells)
	// Lo and Hi bound the task to the half-open sequence-index range
	// [Lo, Hi) of the slaves' resident database. The zero value (Hi == 0)
	// means the whole database: the paper's grain, and what checkpoints
	// written before ranges existed decode to.
	Lo, Hi int
	// Kind selects the execution path on the slave; the zero value TaskSW
	// keeps every pre-existing call site on the paper's single-kind shape.
	Kind TaskKind
}

// State is the lifecycle of a task in the pool (§IV-A.3).
type State int

const (
	// Ready tasks have not been handed to any slave.
	Ready State = iota
	// Executing tasks are running on at least one slave. With the workload
	// adjustment mechanism, several slaves may execute the same task.
	Executing
	// Finished tasks have a collected result.
	Finished
)

// String returns the state name used in logs and traces.
func (s State) String() string {
	switch s {
	case Ready:
		return "ready"
	case Executing:
		return "executing"
	case Finished:
		return "finished"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

type poolEntry struct {
	task       Task
	state      State
	executors  map[SlaveID]time.Duration // slave -> time it started this task
	finishedBy SlaveID
	finishedAt time.Duration
}

// Pool tracks every task of a job through the ready -> executing ->
// finished lifecycle.
type Pool struct {
	entries   []poolEntry
	readyFIFO []TaskID
	nReady    int
	nExec     int
	nFinished int
}

// NewPool builds a pool over the given tasks, all Ready, dispensed in slice
// order. Task IDs must equal their index; NewPool renumbers them to enforce
// this.
func NewPool(tasks []Task) *Pool {
	p := &Pool{entries: make([]poolEntry, len(tasks)), nReady: len(tasks)}
	p.readyFIFO = make([]TaskID, len(tasks))
	for i, t := range tasks {
		t.ID = TaskID(i)
		p.entries[i] = poolEntry{task: t, state: Ready, executors: map[SlaveID]time.Duration{}, finishedBy: -1}
		p.readyFIFO[i] = t.ID
	}
	return p
}

// Len returns the total number of tasks.
func (p *Pool) Len() int { return len(p.entries) }

// Ready returns the number of tasks not yet assigned.
func (p *Pool) Ready() int { return p.nReady }

// ExecutingCount returns the number of tasks currently in the executing state.
func (p *Pool) ExecutingCount() int { return p.nExec }

// Finished returns the number of completed tasks.
func (p *Pool) Finished() int { return p.nFinished }

// Done reports whether every task has a collected result.
func (p *Pool) Done() bool { return p.nFinished == len(p.entries) }

// Task returns the task with the given ID.
func (p *Pool) Task(id TaskID) Task { return p.entries[id].task }

// StateOf returns the lifecycle state of a task.
func (p *Pool) StateOf(id TaskID) State { return p.entries[id].state }

// TakeReady moves up to n ready tasks to the executing state on slave s,
// returning them in FIFO order.
func (p *Pool) TakeReady(n int, s SlaveID, now time.Duration) []Task {
	return p.TakeReadyFunc(n, nil, s, now)
}

// TakeReadyFunc is TakeReady restricted to tasks allow admits (nil admits
// every task): the kind-aware grant path, where a slave only receives task
// kinds it declared capability for. Skipped tasks keep their FIFO position
// for the next capable requester.
func (p *Pool) TakeReadyFunc(n int, allow func(Task) bool, s SlaveID, now time.Duration) []Task {
	if n <= 0 {
		return nil
	}
	var out []Task
	rest := p.readyFIFO[:0]
	for _, id := range p.readyFIFO {
		e := &p.entries[id]
		if len(out) < n && (allow == nil || allow(e.task)) {
			e.state = Executing
			e.executors[s] = now
			out = append(out, e.task)
			continue
		}
		rest = append(rest, id)
	}
	p.readyFIFO = rest
	p.nReady -= len(out)
	p.nExec += len(out)
	return out
}

// ReadyFunc counts the ready tasks allow admits (nil admits every task) —
// the pool depth as seen by a slave of limited capability.
func (p *Pool) ReadyFunc(allow func(Task) bool) int {
	if allow == nil {
		return len(p.readyFIFO)
	}
	n := 0
	for _, id := range p.readyFIFO {
		if allow(p.entries[id].task) {
			n++
		}
	}
	return n
}

// AddExecutor records that slave s (additionally) executes task id — the
// workload adjustment path. It panics if the task is not executing: only
// executing tasks can be replicated.
func (p *Pool) AddExecutor(id TaskID, s SlaveID, now time.Duration) {
	e := &p.entries[id]
	if e.state != Executing {
		panic(fmt.Sprintf("sched: AddExecutor on %s task %d", e.state, id))
	}
	e.executors[s] = now
}

// Executors returns the slaves currently executing task id with their start
// times. The returned map is the pool's own; callers must not mutate it.
func (p *Pool) Executors(id TaskID) map[SlaveID]time.Duration {
	return p.entries[id].executors
}

// ExecutingTasks returns the IDs of all tasks in the executing state, in
// task order.
func (p *Pool) ExecutingTasks() []TaskID {
	var out []TaskID
	for i := range p.entries {
		if p.entries[i].state == Executing {
			out = append(out, TaskID(i))
		}
	}
	return out
}

// Complete records that slave s finished task id at time now. The first
// completion wins (first = true); later completions of the same task by
// replica executors are ignored (first = false). others lists the slaves
// that still hold a now-moot copy, so the caller can notify them.
func (p *Pool) Complete(id TaskID, s SlaveID, now time.Duration) (first bool, others []SlaveID) {
	e := &p.entries[id]
	if e.state == Finished {
		delete(e.executors, s)
		return false, nil
	}
	if _, ok := e.executors[s]; !ok {
		panic(fmt.Sprintf("sched: slave %d completed task %d it was not executing", s, id))
	}
	e.state = Finished
	e.finishedBy = s
	e.finishedAt = now
	delete(e.executors, s)
	for other := range e.executors {
		others = append(others, other)
	}
	// Sorted so callers that fan out cancellations (and the deterministic
	// simulator's event log) see a seed-stable order.
	sort.Slice(others, func(i, j int) bool { return others[i] < others[j] })
	e.executors = map[SlaveID]time.Duration{}
	p.nExec--
	p.nFinished++
	return true, others
}

// Abandon removes slave s from the executors of task id (e.g. the slave
// died or was canceled). If the task loses its last executor it returns to
// the ready state at the head of the FIFO.
func (p *Pool) Abandon(id TaskID, s SlaveID) {
	e := &p.entries[id]
	if e.state != Executing {
		return
	}
	delete(e.executors, s)
	if len(e.executors) == 0 {
		e.state = Ready
		p.nExec--
		p.nReady++
		p.readyFIFO = append([]TaskID{id}, p.readyFIFO...)
	}
}

// FinishedCells sums the Cells of finished tasks: the authoritative
// completed-work figure for progress reporting. Per-slave progress deltas
// cannot serve that role — with the workload adjustment mechanism several
// replicas scan the same task and each reports its own cells, so summing
// deltas double-counts replicated work.
func (p *Pool) FinishedCells() int64 {
	var cells int64
	for i := range p.entries {
		if p.entries[i].state == Finished {
			cells += p.entries[i].task.Cells
		}
	}
	return cells
}

// FinishedBy returns which slave completed task id and when; ok is false if
// the task is not finished.
func (p *Pool) FinishedBy(id TaskID) (s SlaveID, at time.Duration, ok bool) {
	e := &p.entries[id]
	if e.state != Finished {
		return -1, 0, false
	}
	return e.finishedBy, e.finishedAt, true
}
