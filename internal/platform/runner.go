package platform

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/gcups"
	"repro/internal/sched"
	"repro/internal/vtime"
)

// Experiment describes one virtual-time run: a task set, a platform, a
// policy and the communication/notification parameters.
type Experiment struct {
	Tasks  []sched.Task
	PEs    []*PE
	Policy sched.Policy // fresh instance per run; nil = PSS
	Adjust bool
	Omega  int
	// GainThreshold tunes the adjustment mechanism's replication gate;
	// see sched.Config.GainThreshold.
	GainThreshold float64

	// CommLatency is the one-way master<->slave message latency (the
	// paper's hosts sit on Gigabit Ethernet; ~0.2 ms RTT/2).
	CommLatency time.Duration
	// NotifyEvery is the progress-notification period, which is also the
	// resolution at which capacity changes (local load) take effect.
	NotifyEvery time.Duration
	// PollEvery is how often an idle slave re-asks for work after being
	// told to stand by. Defaults to NotifyEvery.
	PollEvery time.Duration
	// Lease enables the master's lease-based failure detection in virtual
	// time: a PE silent for longer than this is declared dead and its
	// tasks requeue — the only rescue for a hung PE (PE.HangAt) when the
	// workload adjustment mechanism is off. Must comfortably exceed
	// NotifyEvery and PollEvery. 0 disables.
	Lease time.Duration

	Seed      int64
	MaxEvents uint64 // event-loop guard; 0 means 20 million
}

// Sample is one point of a per-PE throughput timeline (Figs. 7-8).
type Sample struct {
	T    time.Duration
	Rate float64 // cells/second over the preceding slice
}

// Execution is one task occupancy window on a PE (overhead included).
// Completed is false when the window ended in a cancellation.
type Execution struct {
	Task       sched.TaskID
	Start, End time.Duration
	Completed  bool
	Replica    bool
}

// PEStat aggregates one PE's run.
type PEStat struct {
	Name       string
	Kind       sched.SlaveKind
	CellsDone  int64 // cells actually computed (replicas included)
	TasksWon   int   // tasks whose first completion this PE delivered
	Busy       time.Duration
	Timeline   []Sample
	Executions []Execution
}

// Result is the outcome of one experiment run.
type Result struct {
	Makespan    time.Duration
	UsefulCells int64 // unique task cells (the paper's GCUPS numerator)
	WastedCells int64 // replica cells computed beyond the first completion
	Replicas    int   // replica assignments made by the adjustment mechanism
	PerPE       []PEStat
	Assignments []sched.Assignment
}

// GCUPS returns the run's overall rate: useful cells over the makespan.
func (r *Result) GCUPS() float64 { return gcups.GCUPS(r.UsefulCells, r.Makespan) }

// Run executes the experiment in virtual time and returns its result.
func Run(exp Experiment) (*Result, error) {
	if len(exp.Tasks) == 0 {
		return nil, fmt.Errorf("platform: no tasks")
	}
	if len(exp.PEs) == 0 {
		return nil, fmt.Errorf("platform: no PEs")
	}
	for _, pe := range exp.PEs {
		if err := pe.Validate(); err != nil {
			return nil, err
		}
	}
	if exp.NotifyEvery <= 0 {
		exp.NotifyEvery = 500 * time.Millisecond
	}
	if exp.PollEvery <= 0 {
		exp.PollEvery = exp.NotifyEvery
	}
	if exp.MaxEvents == 0 {
		exp.MaxEvents = 20_000_000
	}

	r := &runner{
		sim: vtime.New(),
		rng: rand.New(rand.NewSource(exp.Seed)),
		exp: exp,
		coord: sched.NewCoordinator(exp.Tasks, sched.Config{
			Policy:        exp.Policy,
			Adjust:        exp.Adjust,
			Omega:         exp.Omega,
			GainThreshold: exp.GainThreshold,
		}),
	}
	r.byID = map[sched.SlaveID]*simSlave{}
	for _, pe := range exp.PEs {
		s := &simSlave{run: r, pe: pe, stat: PEStat{Name: pe.Name, Kind: pe.Kind}}
		r.slaves = append(r.slaves, s)
		// A PE registers when it joins (the paper's future-work scenario of
		// nodes entering mid-run) and is torn down if it leaves.
		pe := pe
		r.sim.Schedule(pe.JoinAt, func() {
			s.id = r.coord.Register(sched.SlaveInfo{
				Name:          pe.Name,
				Kind:          pe.Kind,
				DeclaredSpeed: pe.DeclaredSpeed(),
			}, r.sim.Now())
			r.byID[s.id] = s
			s.requestWork()
		})
		if pe.LeaveAt > 0 {
			r.sim.Schedule(pe.LeaveAt, func() { s.leave() })
		}
		if pe.HangAt > 0 {
			r.sim.Schedule(pe.HangAt, func() { s.hang() })
		}
	}
	if exp.Lease > 0 {
		// The same Coordinator.Expire the wall-clock master drives from a
		// ticker, here driven by a recurring simulated event — both clocks
		// exercise identical failure-detection code.
		interval := exp.Lease / 4
		if interval <= 0 {
			interval = exp.Lease
		}
		var expire func()
		expire = func() {
			if r.done {
				return
			}
			r.coord.Expire(r.sim.Now(), exp.Lease)
			r.sim.After(interval, expire)
		}
		r.sim.After(interval, expire)
	}
	if _, err := r.sim.Run(exp.MaxEvents); err != nil {
		return nil, err
	}
	if !r.coord.Done() {
		return nil, fmt.Errorf("platform: simulation drained with %d/%d tasks finished",
			r.coord.Pool().Finished(), r.coord.Pool().Len())
	}

	res := &Result{
		Makespan:    r.makespan,
		Replicas:    0,
		Assignments: r.coord.AssignmentLog(),
	}
	for _, t := range exp.Tasks {
		res.UsefulCells += t.Cells
	}
	var computed int64
	for _, s := range r.slaves {
		res.PerPE = append(res.PerPE, s.stat)
		computed += s.stat.CellsDone
	}
	if computed > res.UsefulCells {
		res.WastedCells = computed - res.UsefulCells
	}
	for _, a := range res.Assignments {
		if a.Replica {
			res.Replicas++
		}
	}
	return res, nil
}

type runner struct {
	sim      *vtime.Simulator
	coord    *sched.Coordinator
	exp      Experiment
	rng      *rand.Rand
	slaves   []*simSlave
	byID     map[sched.SlaveID]*simSlave
	makespan time.Duration
	done     bool
}

// finish freezes the makespan and halts every slave.
func (r *runner) finish(at time.Duration) {
	if r.done {
		return
	}
	r.done = true
	r.makespan = at
	for _, s := range r.slaves {
		s.stop()
	}
}

type simSlave struct {
	run  *runner
	pe   *PE
	id   sched.SlaveID
	stat PEStat

	queue []sched.Task
	cur   *sched.Task
	// curStart and curReplica describe the running task's occupancy window.
	curStart   time.Duration
	curReplica bool
	replicaIDs map[sched.TaskID]bool

	remaining   float64 // cells left in the current task
	inOverhead  bool
	sliceStart  time.Duration
	sliceSpeed  float64
	sliceEvent  *vtime.Event
	pollEvent   *vtime.Event
	requesting  bool
	stopped     bool
	notifyCells float64 // cells since last progress notification
	notifyBusy  time.Duration
}

func (s *simSlave) now() time.Duration { return s.run.sim.Now() }

func (s *simSlave) stop() {
	s.stopped = true
	if s.sliceEvent != nil {
		s.sliceEvent.Cancel()
	}
	if s.pollEvent != nil {
		s.pollEvent.Cancel()
	}
}

// leave removes the PE mid-run: the master requeues its tasks so the
// surviving slaves pick them up.
func (s *simSlave) leave() {
	if s.stopped {
		return
	}
	s.stop()
	s.queue = nil
	s.cur = nil
	s.run.coord.SlaveDied(s.id)
}

// hang wedges the PE: it stops computing and notifying but — unlike leave
// — the master is never told. Its tasks stay in the executing state until
// lease expiry or a replica rescues them.
func (s *simSlave) hang() {
	if s.stopped {
		return
	}
	s.stop()
	s.queue = nil
	s.cur = nil
}

// requestWork sends a work request to the master and handles the response,
// modeling one-way latency in both directions.
func (s *simSlave) requestWork() {
	if s.stopped || s.requesting {
		return
	}
	s.requesting = true
	lat := s.run.exp.CommLatency
	s.run.sim.After(lat, func() {
		if s.run.done {
			s.requesting = false
			return
		}
		tasks, isReplica := s.run.coord.RequestWork(s.id, s.run.sim.Now())
		s.run.sim.After(lat, func() {
			s.requesting = false
			if s.stopped {
				return
			}
			if len(tasks) == 0 {
				// Stand by and re-ask; the job may still requeue or
				// replicate something for us.
				s.pollEvent = s.run.sim.After(s.run.exp.PollEvery, s.requestWork)
				return
			}
			if isReplica {
				if s.replicaIDs == nil {
					s.replicaIDs = map[sched.TaskID]bool{}
				}
				for _, t := range tasks {
					s.replicaIDs[t.ID] = true
				}
			}
			s.queue = append(s.queue, tasks...)
			if s.cur == nil {
				s.startNext()
			}
		})
	})
}

// startNext begins the next queued task, charging the per-task overhead
// first.
func (s *simSlave) startNext() {
	if s.stopped || s.cur != nil {
		return
	}
	if len(s.queue) == 0 {
		s.requestWork()
		return
	}
	t := s.queue[0]
	s.queue = s.queue[1:]
	s.cur = &t
	s.curStart = s.now()
	s.curReplica = s.replicaIDs[t.ID]
	s.remaining = float64(t.Cells)
	if s.pe.TaskOverhead > 0 {
		s.inOverhead = true
		s.sliceStart = s.now()
		s.sliceEvent = s.run.sim.After(s.pe.TaskOverhead, s.overheadDone)
		return
	}
	s.scheduleSlice()
}

func (s *simSlave) overheadDone() {
	d := s.now() - s.sliceStart
	s.stat.Busy += d
	s.notifyBusy += d
	s.inOverhead = false
	s.scheduleSlice()
}

// scheduleSlice runs the next computation slice: capacity and jitter are
// sampled at the slice start and held for its (bounded) duration.
func (s *simSlave) scheduleSlice() {
	s.sliceStart = s.now()
	s.sliceSpeed = s.pe.SpeedAt(s.sliceStart, s.run.rng)
	d := time.Duration(s.remaining / s.sliceSpeed * float64(time.Second))
	if d > s.run.exp.NotifyEvery {
		d = s.run.exp.NotifyEvery
	}
	if d <= 0 {
		d = time.Nanosecond
	}
	s.sliceEvent = s.run.sim.After(d, s.sliceDone)
}

func (s *simSlave) sliceDone() {
	d := s.now() - s.sliceStart
	cells := s.sliceSpeed * d.Seconds()
	if cells > s.remaining {
		cells = s.remaining
	}
	s.remaining -= cells
	s.stat.Busy += d
	s.stat.CellsDone += int64(cells)
	s.notifyCells += cells
	s.notifyBusy += d
	s.stat.Timeline = append(s.stat.Timeline, Sample{T: s.now(), Rate: s.sliceSpeed})

	// Periodic progress notification: measured rate over busy time, which
	// amortizes task overheads into the estimate the master uses.
	if s.notifyBusy >= s.run.exp.NotifyEvery || s.remaining <= 1e-6 {
		rate := s.notifyCells / s.notifyBusy.Seconds()
		delta := int64(s.notifyCells)
		now := s.now()
		lat := s.run.exp.CommLatency
		id := s.id
		s.run.sim.After(lat, func() {
			if !s.run.done {
				s.run.coord.ProgressRate(id, rate, delta, now+lat)
			}
		})
		s.notifyCells, s.notifyBusy = 0, 0
	}

	if s.remaining <= 1e-6 {
		s.completeCurrent()
		return
	}
	s.scheduleSlice()
}

// completeCurrent reports the finished task to the master.
func (s *simSlave) completeCurrent() {
	t := *s.cur
	s.stat.Executions = append(s.stat.Executions, Execution{
		Task: t.ID, Start: s.curStart, End: s.now(), Completed: true, Replica: s.curReplica,
	})
	s.cur = nil
	lat := s.run.exp.CommLatency
	s.run.sim.After(lat, func() {
		if s.run.done {
			return
		}
		now := s.run.sim.Now()
		accepted, cancel := s.run.coord.Complete(s.id, t.ID, nil, now)
		if accepted {
			s.stat.TasksWon++
			for _, cid := range cancel {
				victim := s.run.byID[cid]
				if victim == nil {
					continue
				}
				s.run.sim.After(lat, func() { victim.cancelTask(t.ID) })
			}
			if s.run.coord.Done() {
				s.run.finish(now)
				return
			}
		}
	})
	// Proceed immediately with queued work; the master hears about the
	// completion one latency later.
	s.startNext()
}

// cancelTask aborts a now-moot replica, freeing the slave for useful work.
func (s *simSlave) cancelTask(id sched.TaskID) {
	if s.stopped {
		return
	}
	// Drop queued copies.
	keep := s.queue[:0]
	for _, t := range s.queue {
		if t.ID != id {
			keep = append(keep, t)
		}
	}
	s.queue = keep
	if s.cur != nil && s.cur.ID == id {
		if s.sliceEvent != nil {
			s.sliceEvent.Cancel()
		}
		// Account the partial slice that did run.
		if !s.inOverhead {
			d := s.now() - s.sliceStart
			cells := s.sliceSpeed * d.Seconds()
			if cells > s.remaining {
				cells = s.remaining
			}
			s.stat.Busy += d
			s.stat.CellsDone += int64(cells)
		} else {
			s.stat.Busy += s.now() - s.sliceStart
		}
		s.stat.Executions = append(s.stat.Executions, Execution{
			Task: id, Start: s.curStart, End: s.now(), Completed: false, Replica: s.curReplica,
		})
		s.cur = nil
		s.inOverhead = false
		s.startNext()
	}
}
