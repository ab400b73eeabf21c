package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/master"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/seq"
	"repro/internal/vtime"
	"repro/internal/wire"
)

// Report is the outcome of one simulated run. Violations is the invariant
// library's verdict: empty means every invariant held.
type Report struct {
	Name        string        `json:"name,omitempty"`
	Seed        int64         `json:"seed"`
	Done        bool          `json:"done"`
	Makespan    time.Duration `json:"makespan_ns"`
	EventsFired uint64        `json:"events_fired"`
	Restarts    int           `json:"restarts"`
	Expired     int           `json:"expired"`
	Replicas    int           `json:"replicas"`
	Faults      int           `json:"faults"`
	Violations  []string      `json:"violations,omitempty"`
	// Fingerprint hashes the structured event log and the final results:
	// two runs of the same scenario+seed must agree byte for byte.
	Fingerprint string `json:"fingerprint"`

	Results  []master.QueryResult `json:"-"`
	EventLog []byte               `json:"-"`
}

// Run executes one scenario to quiescence and checks every invariant. It
// returns an error only for invalid scenarios; invariant failures land in
// Report.Violations so soak drivers can keep going and shrink later.
func Run(sc Scenario) (*Report, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	sc = sc.fill()
	r := newRun(sc)
	r.start()
	fired, err := r.sim.Run(sc.MaxEvents)
	if err != nil {
		r.violatef("quiescence: %v", err)
	}
	return r.report(fired), nil
}

// incarnation identifies one lifetime of a slave machine: epoch bumps on
// every crash, hang or rebirth, invalidating the old lifetime's in-flight
// events and its claim on a registered slave ID.
type incarnation struct {
	m     *machine
	epoch int
}

// run is the whole simulated cluster: the event loop, the master side
// (protocol core + durable state), the virtual network and the invariant
// trackers.
type run struct {
	sc  Scenario
	sim *vtime.Simulator

	// Master side. core is nil while the master is down.
	core       *master.Core
	queries    []*seq.Sequence
	events     *metrics.EventLog
	eventBuf   bytes.Buffer
	checkpoint []byte // gob-encoded sched.Snapshot, saved on every accepted completion
	downUntil  time.Duration
	jobDone    bool // latched: once true the lease ticker stops rescheduling

	machines []*machine

	// Invariant trackers.
	owner         map[sched.SlaveID]incarnation   // who holds each registered ID
	lastDelivered map[sched.SlaveID]time.Duration // last message the core actually received per live ID
	lastContact   map[sched.SlaveID]time.Duration // coordinator's view, sampled for monotonicity
	violations    []string

	restarts int
	expired  int
	faults   int
}

func newRun(sc Scenario) *run {
	r := &run{
		sc:            sc,
		sim:           vtime.New(),
		owner:         map[sched.SlaveID]incarnation{},
		lastDelivered: map[sched.SlaveID]time.Duration{},
		lastContact:   map[sched.SlaveID]time.Duration{},
	}
	r.events = metrics.NewEventLog(&r.eventBuf)
	r.queries = make([]*seq.Sequence, len(sc.TaskResidues))
	for i, n := range sc.TaskResidues {
		res := bytes.Repeat([]byte{'M'}, n)
		r.queries[i] = seq.New(fmt.Sprintf("q%03d", i), "", res)
	}
	for i, spec := range sc.Slaves {
		r.machines = append(r.machines, newMachine(r, i, spec))
	}
	return r
}

func (r *run) violatef(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

// schedConfig builds the coordinator config; policy construction cannot
// fail here because Validate already vetted the name.
func (r *run) schedConfig() sched.Config {
	cfg := sched.Config{Adjust: r.sc.Adjust, Omega: r.sc.Omega}
	if r.sc.Policy != "" {
		p, err := sched.NewPolicy(r.sc.Policy)
		if err != nil {
			panic(err)
		}
		cfg.Policy = p
	}
	return cfg
}

// start boots the master, schedules the fault timetable and brings up the
// slaves.
func (r *run) start() {
	core, err := master.NewCore(r.queries, r.sc.DBResidues, nil, r.schedConfig(), r.events)
	if err != nil {
		panic(err) // Validate guarantees non-empty queries
	}
	r.core = core
	if r.sc.Lease > 0 {
		r.sim.After(r.sc.Lease/4, r.leaseTick)
	}
	for _, re := range r.sc.Restarts {
		re := re
		r.sim.Schedule(re.At, func() { r.crashMaster(re) })
	}
	for _, m := range r.machines {
		m.boot()
	}
}

// --- master lifecycle -------------------------------------------------

func (r *run) masterUp() bool { return r.core != nil }

// leaseTick drives the lease-based failure detector every lease/4, exactly
// like the wall-clock master's ticker, and cross-checks every expiry
// against the simulator's ground truth of message deliveries.
func (r *run) leaseTick() {
	now := r.sim.Now()
	if r.masterUp() && !r.jobDone {
		for _, id := range r.core.Expire(now, r.sc.Lease) {
			r.expired++
			r.checkExpiry(id, now)
		}
	}
	if !r.jobDone {
		r.sim.After(r.sc.Lease/4, r.leaseTick)
	}
}

// checkExpiry asserts the lease-safety invariant: an ID may only expire if
// its owning incarnation is gone (crashed, hung, or superseded) or the
// master genuinely heard nothing from it for a full lease.
func (r *run) checkExpiry(id sched.SlaveID, now time.Duration) {
	own, ok := r.owner[id]
	if !ok {
		return // registered before a restart; ID not owned in this incarnation
	}
	alive := own.m.epoch == own.epoch && !own.m.crashed && !own.m.wedged
	if !alive {
		return
	}
	if last, ok := r.lastDelivered[id]; ok && now-last <= r.sc.Lease {
		r.violatef("lease-safety: slave %s (id %d) expired at %v though the master heard it at %v (lease %v)",
			own.m.spec.Name, id, now, last, r.sc.Lease)
	}
}

// crashMaster takes the master down: the core is discarded (in-memory
// state lost; only the checkpoint survives) and a restore is scheduled.
func (r *run) crashMaster(re MasterRestart) {
	if r.core == nil {
		return // overlapping restarts are rejected by Validate; be safe
	}
	r.restarts++
	r.core = nil
	r.downUntil = r.sim.Now() + re.DownFor
	r.sim.After(re.DownFor, r.restoreMaster)
}

// restoreMaster boots a fresh master incarnation from the checkpoint.
func (r *run) restoreMaster() {
	r.downUntil = 0
	// Registrations are deliberately not checkpointed: every slave must
	// re-register, so prior IDs are meaningless to the new incarnation.
	r.owner = map[sched.SlaveID]incarnation{}
	r.lastDelivered = map[sched.SlaveID]time.Duration{}
	r.lastContact = map[sched.SlaveID]time.Duration{}
	if r.checkpoint == nil {
		core, err := master.NewCore(r.queries, r.sc.DBResidues, nil, r.schedConfig(), r.events)
		if err != nil {
			panic(err)
		}
		r.core = core
	} else {
		var snap sched.Snapshot
		if err := gob.NewDecoder(bytes.NewReader(r.checkpoint)).Decode(&snap); err != nil {
			r.violatef("restart: corrupt checkpoint: %v", err)
			return
		}
		core, err := master.RestoreCore(&snap, r.queries, nil, r.schedConfig(), r.events)
		if err != nil {
			r.violatef("restart: %v", err)
			return
		}
		r.core = core
	}
}

// --- network ----------------------------------------------------------

// errMasterDown is the connection-refused transport error.
var errMasterDown = fmt.Errorf("sim: master down: %w", wire.ErrInjected)

// roundTrip models one slave→master call in virtual time: the request
// travels Latency, the master dispatches it at the delivery instant, and
// the response travels Latency back. The slave's fault rules can error,
// hang, delay, drop or duplicate the call — the same wire.RuleSet
// decisions FaultCaller executes on the wall clock, executed here as
// virtual events. cb runs on the calling incarnation only; responses to a
// crashed or hung slave evaporate, but requests already in flight still
// reach the master (the late-completion hazard under test).
func (r *run) roundTrip(m *machine, req wire.Envelope, cb func(resp wire.Envelope, err error)) {
	ep := m.epoch
	lat := r.sc.Latency
	done := func(after time.Duration, resp wire.Envelope, err error) {
		r.sim.After(after, func() {
			if m.epoch == ep {
				cb(resp, err)
			}
		})
	}
	action, delay, fired := m.rules.Next(wire.KindOf(req))
	if fired {
		r.faults++
		switch action {
		case wire.FaultError:
			done(lat, wire.Envelope{}, fmt.Errorf("%w: %v lost", wire.ErrInjected, wire.KindOf(req)))
			return
		case wire.FaultHang:
			done(r.sc.CallTimeout, wire.Envelope{}, fmt.Errorf("%w: call hung until timeout", wire.ErrInjected))
			return
		case wire.FaultDelay:
			lat += delay
		case wire.FaultDrop:
			r.sim.After(lat, func() { _, _ = r.deliver(m, ep, req) })
			done(r.sc.CallTimeout, wire.Envelope{}, fmt.Errorf("%w: response dropped", wire.ErrInjected))
			return
		case wire.FaultDup:
			// First copy delivered; the caller sees the second response.
			r.sim.After(lat, func() { _, _ = r.deliver(m, ep, req) })
		}
	}
	r.sim.After(lat, func() {
		resp, err := r.deliver(m, ep, req)
		if err != nil {
			done(r.sc.Latency, wire.Envelope{}, err)
			return
		}
		done(r.sc.Latency, resp, nil)
	})
}

// deliver hands one request to the master core at the current virtual
// instant, maintaining the invariant trackers and the durable side effect
// (checkpoint-on-completion) the wall-clock master performs around
// Dispatch.
func (r *run) deliver(m *machine, epoch int, req wire.Envelope) (wire.Envelope, error) {
	if !r.masterUp() {
		return wire.Envelope{}, errMasterDown
	}
	now := r.sim.Now()
	coord := r.core.Coordinator()
	resp := r.core.Dispatch(req, now)

	// Track ownership and delivery ground truth for the invariant checks.
	if req.Register != nil && resp.RegisterAck != nil {
		id := resp.RegisterAck.Slave
		r.owner[id] = incarnation{m: m, epoch: epoch}
		r.lastDelivered[id] = now
		r.lastContact[id] = coord.LastContact(id)
	}
	if id, ok := senderOf(req); ok && int(id) < coord.Slaves() && !coord.Dead(id) {
		r.lastDelivered[id] = now
		lc := coord.LastContact(id)
		if prev, seen := r.lastContact[id]; seen && lc < prev {
			r.violatef("monotone-history: slave id %d LastContact went backwards: %v -> %v", id, prev, lc)
		}
		r.lastContact[id] = lc
	}

	// The durable side effect: a synchronous checkpoint per accepted result.
	if req.Complete != nil && resp.CompleteAck != nil && resp.CompleteAck.Accepted {
		r.saveCheckpoint()
	}
	if r.core.Done() {
		r.jobDone = true
	}
	return resp, nil
}

// senderOf extracts the slave ID a request claims to come from.
func senderOf(req wire.Envelope) (sched.SlaveID, bool) {
	switch {
	case req.Request != nil:
		return req.Request.Slave, true
	case req.Progress != nil:
		return req.Progress.Slave, true
	case req.Complete != nil:
		return req.Complete.Slave, true
	default:
		return 0, false
	}
}

func (r *run) saveCheckpoint() {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(r.core.Snapshot()); err != nil {
		r.violatef("checkpoint: %v", err)
		return
	}
	r.checkpoint = buf.Bytes()
}

// --- final report -----------------------------------------------------

func (r *run) report(fired uint64) *Report {
	rep := &Report{
		Name:        r.sc.Name,
		Seed:        r.sc.Seed,
		Makespan:    r.sim.Now(),
		EventsFired: fired,
		Restarts:    r.restarts,
		Expired:     r.expired,
		Faults:      r.faults,
	}
	r.checkFinal()
	if r.masterUp() {
		rep.Done = r.core.Done()
		rep.Results = r.core.Results()
		for _, a := range r.core.Coordinator().AssignmentLog() {
			if a.Replica {
				rep.Replicas++
			}
		}
	}
	rep.Violations = r.violations
	rep.EventLog = append([]byte(nil), r.eventBuf.Bytes()...)
	resJSON, err := json.Marshal(rep.Results)
	if err != nil {
		rep.Violations = append(rep.Violations, fmt.Sprintf("report: results not serializable: %v", err))
	}
	h := sha256.New()
	_, _ = h.Write(rep.EventLog) // hash.Hash.Write never fails
	_, _ = h.Write(resJSON)
	rep.Fingerprint = hex.EncodeToString(h.Sum(nil))
	return rep
}

// checkFinal runs the end-of-run invariant library.
func (r *run) checkFinal() {
	if !r.masterUp() {
		r.violatef("quiescence: run ended with the master down (restart scheduled past the horizon?)")
		return
	}
	coord := r.core.Coordinator()
	if !coord.Done() {
		pool := coord.Pool()
		r.violatef("liveness: job not finished: %d/%d tasks done, %d ready, %d executing",
			pool.Finished(), pool.Len(), pool.Ready(), pool.ExecutingCount())
		return
	}

	// Exactly-once: every task has exactly one result, in task order, and
	// the pool agrees on the winner.
	results := coord.Results()
	if len(results) != len(r.queries) {
		r.violatef("exactly-once: %d results for %d tasks", len(results), len(r.queries))
	}
	seen := map[sched.TaskID]bool{}
	for _, res := range results {
		if seen[res.Task] {
			r.violatef("exactly-once: task %d finished twice in the result set", res.Task)
		}
		seen[res.Task] = true
		winner, at, ok := coord.Pool().FinishedBy(res.Task)
		if !ok || winner != res.Slave || at != res.At {
			r.violatef("convergence: task %d result credits slave %d@%v but the pool says %d@%v (ok=%t)",
				res.Task, res.Slave, res.At, winner, at, ok)
		}
	}

	// Quiescence: no live slave machine is still holding work.
	for _, m := range r.machines {
		if m.crashed || m.wedged || m.stopped {
			continue
		}
		if m.working != nil || len(m.queue) > 0 {
			r.violatef("quiescence: slave %s still holds work after the job finished", m.spec.Name)
		}
	}
}
