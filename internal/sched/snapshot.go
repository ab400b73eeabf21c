package sched

import "time"

// Snapshot is a serializable image of a job's durable state: the task set
// and the results collected so far. Slave registrations, speed histories
// and in-flight executions are deliberately *not* captured — after a master
// restart the slaves are gone, so unfinished tasks must re-run anyway.
// Payloads must be gob-registered by the caller when the snapshot crosses a
// process boundary.
type Snapshot struct {
	Tasks    []Task
	Finished []FinishedTask
}

// FinishedTask is one collected result inside a snapshot.
type FinishedTask struct {
	Task    TaskID
	QueryID string
	Slave   SlaveID
	At      time.Duration
	Payload any
}

// Snapshot captures the job's durable state. Tasks currently executing are
// recorded as unfinished (they will re-run after a restore).
func (c *Coordinator) Snapshot() *Snapshot {
	snap := &Snapshot{Tasks: make([]Task, c.pool.Len())}
	for i := 0; i < c.pool.Len(); i++ {
		snap.Tasks[i] = c.pool.Task(TaskID(i))
	}
	for _, r := range c.Results() {
		snap.Finished = append(snap.Finished, FinishedTask{
			Task:    r.Task,
			QueryID: r.QueryID,
			Slave:   r.Slave,
			At:      r.At,
			Payload: r.Payload,
		})
	}
	return snap
}

// Restore builds a coordinator from a snapshot: finished tasks keep their
// results and never re-run; everything else returns to the ready queue.
// The configuration (policy, adjustment, Ω) is supplied fresh — policies
// are stateful per run and are not part of the durable state.
func Restore(snap *Snapshot, cfg Config) *Coordinator {
	c := NewCoordinator(snap.Tasks, cfg)
	for _, f := range snap.Finished {
		c.pool.restoreFinished(f.Task, f.Slave, f.At)
		c.results[f.Task] = Result{
			Task:    f.Task,
			QueryID: f.QueryID,
			Slave:   f.Slave,
			At:      f.At,
			Payload: f.Payload,
		}
	}
	c.syncGauges()
	return c
}

// restoreFinished force-marks a ready task as finished during a restore.
func (p *Pool) restoreFinished(id TaskID, s SlaveID, at time.Duration) {
	e := &p.entries[id]
	if e.state != Ready {
		return
	}
	// Remove from the ready FIFO.
	for i, rid := range p.readyFIFO {
		if rid == id {
			p.readyFIFO = append(p.readyFIFO[:i], p.readyFIFO[i+1:]...)
			break
		}
	}
	e.state = Finished
	e.finishedBy = s
	e.finishedAt = at
	p.nReady--
	p.nFinished++
}
