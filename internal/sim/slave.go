package sim

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/wire"
)

// slaveBackoff is the reconnect schedule simulated slaves ride when the
// master is unreachable — the same truncated-exponential wire.Backoff the
// real slave loop uses, jittered from the machine's seeded rng.
var slaveBackoff = wire.Backoff{Base: 50 * time.Millisecond, Cap: 2 * time.Second, Jitter: 0.2}

// work is the task a machine is currently executing.
type work struct {
	spec      wire.TaskSpec
	cellsDone int64
}

// machine is one simulated slave: a virtual-time state machine mirroring
// the real slave loop (register → request → execute/notify → complete,
// with reconnect backoff), driven entirely by scheduled events. Its speed
// comes from the shared platform.PE model; its link faults from a seeded
// wire.RuleSet.
type machine struct {
	r     *run
	index int
	spec  SlaveSpec
	pe    *platform.PE
	rng   *rand.Rand
	rules *wire.RuleSet

	// epoch bumps on crash, hang and revival; events scheduled by an older
	// epoch (in-flight responses, pending slices) are dropped on arrival.
	epoch   int
	id      sched.SlaveID
	crashed bool
	wedged  bool
	stopped bool // saw Done: the job is over for this slave
	attempt int  // consecutive transport failures, drives backoff

	queue   []wire.TaskSpec
	working *work
}

func newMachine(r *run, index int, spec SlaveSpec) *machine {
	return &machine{
		r:     r,
		index: index,
		spec:  spec,
		pe:    spec.pe(),
		rng:   rand.New(rand.NewSource(r.sc.Seed ^ int64(0x51a7e)*int64(index+1))),
		rules: wire.NewRuleSet(r.sc.Seed^int64(0x1111)*int64(index+1), spec.Rules...),
		id:    -1,
	}
}

// boot schedules the machine's birth and its fault timetable. Starts are
// staggered per index so registration order is by construction rather than
// heap tie-breaking — easier to reason about in failure reproducers.
func (m *machine) boot() {
	m.r.sim.After(time.Duration(m.index)*time.Millisecond, m.guard(m.register))
	if m.spec.CrashAt > 0 {
		m.r.sim.Schedule(m.spec.CrashAt, m.crash)
	}
	if m.spec.HangAt > 0 {
		m.r.sim.Schedule(m.spec.HangAt, m.hang)
	}
	if m.spec.RecoverAt > 0 {
		m.r.sim.Schedule(m.spec.RecoverAt, m.revive)
	}
}

// guard wraps a callback so it only runs if the machine is still in the
// same lifetime that scheduled it.
func (m *machine) guard(fn func()) func() {
	ep := m.epoch
	return func() {
		if m.epoch == ep && !m.stopped {
			fn()
		}
	}
}

// retry schedules fn after the next backoff delay (one more consecutive
// transport failure).
func (m *machine) retry(fn func()) {
	m.attempt++
	m.r.sim.After(slaveBackoff.Delay(m.attempt-1, m.rng), m.guard(fn))
}

// reset drops every trace of the current session — registration and
// assigned work — and re-registers. This is the slave's reaction to an
// Error envelope ("expired; re-register", "unknown slave" after a master
// restart): the work it held has been requeued (or will be) on the master
// side; finishing it under a stale ID would be rejected anyway.
func (m *machine) reset() {
	m.id = -1
	m.queue = nil
	m.working = nil
	m.register()
}

func (m *machine) register() {
	m.r.roundTrip(m, wire.Envelope{Register: &wire.RegisterMsg{
		Name:          m.spec.Name,
		Kind:          m.spec.Kind,
		DeclaredSpeed: m.pe.DeclaredSpeed(),
	}}, func(resp wire.Envelope, err error) {
		if err != nil || resp.RegisterAck == nil {
			m.retry(m.register)
			return
		}
		m.attempt = 0
		m.id = resp.RegisterAck.Slave
		m.requestWork()
	})
}

func (m *machine) requestWork() {
	m.r.roundTrip(m, wire.Envelope{Request: &wire.RequestMsg{Slave: m.id}}, func(resp wire.Envelope, err error) {
		switch {
		case err != nil:
			m.retry(m.requestWork)
		case resp.Error != "":
			m.reset()
		case resp.Assign == nil:
			m.retry(m.requestWork)
		case resp.Assign.Done:
			m.stopped = true
		case resp.Assign.Standby:
			m.attempt = 0
			m.r.sim.After(m.r.sc.PollEvery, m.guard(m.requestWork))
		default:
			m.attempt = 0
			m.queue = append(m.queue, resp.Assign.Tasks...)
			m.startNext()
		}
	})
}

// startNext begins the next queued task (charging the PE's per-task
// overhead first) or goes back to asking for work.
func (m *machine) startNext() {
	if m.working != nil {
		return
	}
	if len(m.queue) == 0 {
		m.requestWork()
		return
	}
	m.working = &work{spec: m.queue[0]}
	m.queue = m.queue[1:]
	m.r.sim.After(m.pe.TaskOverhead, m.guard(m.slice))
}

// slice advances the current task by up to one notification interval at
// the PE's current effective speed (capacity windows + jitter — the same
// model the discrete-event runner integrates). A full slice ends in a
// progress notification; the final partial slice ends in completion, its
// delta carried on the Complete message. Computation pauses while a call
// is in flight, matching a synchronous notifier.
func (m *machine) slice() {
	w := m.working
	if w == nil {
		m.startNext()
		return
	}
	speed := m.pe.SpeedAt(m.r.sim.Now(), m.rng)
	remaining := w.spec.Cells - w.cellsDone
	sliceCells := int64(speed * m.r.sc.NotifyEvery.Seconds())
	if sliceCells < 1 {
		sliceCells = 1
	}
	if remaining <= sliceCells {
		dur := time.Duration(float64(remaining) / speed * float64(time.Second))
		m.r.sim.After(dur, m.guard(func() { m.complete(remaining, speed) }))
		return
	}
	m.r.sim.After(m.r.sc.NotifyEvery, m.guard(func() {
		w.cellsDone += sliceCells
		m.notify(sliceCells, speed)
	}))
}

func (m *machine) notify(cells int64, rate float64) {
	m.r.roundTrip(m, wire.Envelope{Progress: &wire.ProgressMsg{
		Slave: m.id, Rate: rate, Cells: cells,
	}}, func(resp wire.Envelope, err error) {
		switch {
		case err != nil:
			// The cells are done; only the notification is lost. Retry the
			// same message — the master tolerates duplicate progress.
			m.retry(func() { m.notify(cells, rate) })
		case resp.Error != "":
			m.reset()
		case resp.ProgressAck == nil:
			m.retry(func() { m.notify(cells, rate) })
		case resp.ProgressAck.Done:
			m.stopped = true
		default:
			m.attempt = 0
			m.applyCancels(resp.ProgressAck.Cancel)
			m.slice()
		}
	})
}

func (m *machine) complete(finalCells int64, rate float64) {
	w := m.working
	if w == nil {
		m.startNext()
		return
	}
	w.cellsDone = w.spec.Cells
	m.r.roundTrip(m, wire.Envelope{Complete: &wire.CompleteMsg{
		Slave: m.id,
		Task:  w.spec.ID,
		Hits:  hitsFor(w.spec),
		Rate:  rate,
		Cells: finalCells,
	}}, func(resp wire.Envelope, err error) {
		switch {
		case err != nil:
			// At-least-once delivery: the completion may already have
			// landed (response dropped); the master's duplicate guard
			// answers the retry with Accepted=false and no harm done.
			m.retry(func() { m.complete(finalCells, rate) })
		case resp.Error != "":
			m.reset()
		case resp.CompleteAck == nil:
			m.retry(func() { m.complete(finalCells, rate) })
		case resp.CompleteAck.Done:
			m.stopped = true
		default:
			m.attempt = 0
			m.working = nil
			m.applyCancels(resp.CompleteAck.Cancel)
			m.startNext()
		}
	})
}

// applyCancels drops tasks whose other copy finished first: the current
// task if it is named, and any queued copies.
func (m *machine) applyCancels(cancel []sched.TaskID) {
	if len(cancel) == 0 {
		return
	}
	moot := map[sched.TaskID]bool{}
	for _, id := range cancel {
		moot[id] = true
	}
	if m.working != nil && moot[m.working.spec.ID] {
		m.working = nil
	}
	kept := m.queue[:0]
	for _, t := range m.queue {
		if !moot[t.ID] {
			kept = append(kept, t)
		}
	}
	m.queue = kept
}

// crash kills the machine: every in-flight event of this lifetime is
// orphaned, and the master hears the connection drop one latency later —
// unless it is down, in which case the restart loses the registration
// anyway.
func (m *machine) crash() {
	if m.stopped || m.crashed {
		return
	}
	m.epoch++
	m.crashed = true
	m.queue = nil
	m.working = nil
	id, self := m.id, m
	m.id = -1
	if id >= 0 {
		m.r.sim.After(m.r.sc.Latency, func() {
			own, ok := m.r.owner[id]
			if ok && own.m == self && m.r.masterUp() {
				m.r.core.SlaveGone(id)
			}
		})
	}
}

// hang wedges the machine silently: no SlaveGone, no further messages.
// Its registered ID stays live on the master until the lease expires.
func (m *machine) hang() {
	if m.stopped || m.wedged || m.crashed {
		return
	}
	m.epoch++
	m.wedged = true
	m.queue = nil
	m.working = nil
}

// revive reboots a crashed or hung machine as a fresh incarnation that
// re-registers for a new ID.
func (m *machine) revive() {
	if m.stopped || (!m.crashed && !m.wedged) {
		return
	}
	m.epoch++
	m.crashed = false
	m.wedged = false
	m.attempt = 0
	m.id = -1
	m.queue = nil
	m.working = nil
	m.register()
}

// hitsFor synthesizes a deterministic result payload for a task: a pure
// function of the task, so the job's merged results are identical no
// matter which replica wins the race.
func hitsFor(spec wire.TaskSpec) []wire.Hit {
	n := 1 + int(spec.ID)%3
	hits := make([]wire.Hit, n)
	for i := range hits {
		hits[i] = wire.Hit{
			SeqID: fmt.Sprintf("db%04d", (int(spec.ID)*131+i*37)%9973),
			Index: int(spec.ID)*10 + i,
			Score: 40 + (int(spec.ID)*17+i*29)%120,
		}
	}
	return hits
}
