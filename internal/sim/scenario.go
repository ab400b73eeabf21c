// Package sim is a deterministic whole-cluster simulator: it composes the
// repo's existing pieces — the vtime discrete-event clock, platform.PE
// speed models, the sched.Coordinator, the master protocol core
// (master.Core), the wire fault-rule engine (wire.RuleSet) and wire.Backoff
// reconnect schedules — behind a single seeded rand source and a
// virtual-time event loop. Jobs durability (WAL replay, torn tails) is
// tested on the real store in internal/jobs, not simulated.
//
// A Scenario describes one adversarial cluster run: slave speeds and fault
// schedules (crash, hang, slow-down, message drop/delay/duplicate), the
// allocation policy, and master restarts with checkpoint recovery.
// Run executes it to quiescence and checks the invariant library (see
// Report.Violations). The whole run is a pure function of the scenario —
// no goroutines, no wall clock, no global randomness — which the purity
// analyzer (internal/analysis) enforces mechanically, and which is what
// makes every failure a replayable seed.
package sim

import (
	"fmt"
	"time"

	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/wire"
)

// SlaveSpec describes one simulated slave and its fault schedule. The speed
// model fields (Speed, Jitter, Overhead, Slow) map directly onto a
// platform.PE, so the simulator's slaves slow down and wobble exactly like
// the calibrated discrete-event experiments.
type SlaveSpec struct {
	Name string          `json:"name"`
	Kind sched.SlaveKind `json:"kind"`
	// Speed is the sustained throughput in cells/second.
	Speed float64 `json:"speed"`
	// Declared is the registration speed (WFixed baseline); 0 means Speed.
	Declared float64 `json:"declared,omitempty"`
	// Jitter is the relative half-width of per-slice speed noise.
	Jitter float64 `json:"jitter,omitempty"`
	// Overhead is charged once per task execution.
	Overhead time.Duration `json:"overhead,omitempty"`
	// Slow lists capacity-scaling windows (the paper's §V-C local-load
	// experiment shape).
	Slow []platform.LoadPhase `json:"slow,omitempty"`
	// CrashAt kills the slave at this virtual time: its connection drops
	// (the master hears SlaveGone) and all in-flight work dies with it.
	// Zero means never.
	CrashAt time.Duration `json:"crash_at,omitempty"`
	// HangAt wedges the slave silently at this virtual time: no SlaveGone,
	// no further messages — only lease expiry or workload adjustment can
	// rescue its tasks. Zero means never.
	HangAt time.Duration `json:"hang_at,omitempty"`
	// RecoverAt reboots a crashed or hung slave at this virtual time: a
	// fresh incarnation re-registers for a new ID. Zero means never.
	RecoverAt time.Duration `json:"recover_at,omitempty"`
	// Rules inject message faults on this slave's link (drop, delay,
	// duplicate, error, hang), decided by the scenario-seeded wire.RuleSet.
	Rules []wire.Rule `json:"rules,omitempty"`
}

// MasterRestart crashes the master at At and restores it — from its last
// checkpoint — DownFor later. While down, every call gets
// a connection-refused error and slaves ride their reconnect backoff.
type MasterRestart struct {
	At      time.Duration `json:"at"`
	DownFor time.Duration `json:"down_for"`
}

// Scenario is one complete simulated cluster run. The zero value of most
// knobs means "a sensible default" (see fill); Slaves and TaskResidues are
// required.
type Scenario struct {
	Name string `json:"name,omitempty"`
	// Seed drives every random draw in the run: fault-rule probabilities,
	// speed jitter, backoff jitter. Same scenario + same seed
	// ⇒ byte-identical event log and results.
	Seed int64 `json:"seed"`
	// TaskResidues lists the query lengths; task i costs
	// TaskResidues[i] × DBResidues cells.
	TaskResidues []int `json:"task_residues"`
	// DBResidues is the database size; 0 means 1e6.
	DBResidues int64 `json:"db_residues,omitempty"`
	// Policy is the allocation policy name (sched.NewPolicy); "" means PSS.
	Policy string `json:"policy,omitempty"`
	// Adjust enables the workload adjustment mechanism (task replication).
	Adjust bool `json:"adjust,omitempty"`
	// Omega is the PSS notification window; 0 means the sched default.
	Omega int `json:"omega,omitempty"`
	// Lease enables lease-based failure detection; 0 disables it (then
	// only crash detection and adjustment can rescue stuck tasks).
	Lease time.Duration `json:"lease,omitempty"`
	// NotifyEvery is the slaves' progress-notification interval.
	NotifyEvery time.Duration `json:"notify_every,omitempty"`
	// PollEvery is the standby re-poll interval.
	PollEvery time.Duration `json:"poll_every,omitempty"`
	// Latency is the one-way message latency.
	Latency time.Duration `json:"latency,omitempty"`
	// CallTimeout is how long a slave waits on a lost response before
	// treating the call as failed.
	CallTimeout time.Duration `json:"call_timeout,omitempty"`

	Slaves   []SlaveSpec     `json:"slaves"`
	Restarts []MasterRestart `json:"restarts,omitempty"`

	// MaxEvents bounds the event loop against livelock; 0 means 500_000.
	// Hitting the bound is reported as a quiescence violation.
	MaxEvents uint64 `json:"max_events,omitempty"`
}

// Defaults applied by fill.
const (
	defaultDBResidues  = int64(1_000_000)
	defaultNotifyEvery = 250 * time.Millisecond
	defaultPollEvery   = 500 * time.Millisecond
	defaultLatency     = 5 * time.Millisecond
	defaultCallTimeout = time.Second
	defaultMaxEvents   = 500_000
)

// fill resolves zero knobs to defaults, returning a copy.
func (sc Scenario) fill() Scenario {
	if sc.DBResidues <= 0 {
		sc.DBResidues = defaultDBResidues
	}
	if sc.NotifyEvery <= 0 {
		sc.NotifyEvery = defaultNotifyEvery
	}
	if sc.PollEvery <= 0 {
		sc.PollEvery = defaultPollEvery
	}
	if sc.Latency <= 0 {
		sc.Latency = defaultLatency
	}
	if sc.CallTimeout <= 0 {
		sc.CallTimeout = defaultCallTimeout
	}
	if sc.MaxEvents == 0 {
		sc.MaxEvents = defaultMaxEvents
	}
	return sc
}

// Validate rejects unusable scenarios before any events fire.
func (sc Scenario) Validate() error {
	sc = sc.fill()
	if len(sc.TaskResidues) == 0 {
		return fmt.Errorf("sim: scenario %q has no tasks", sc.Name)
	}
	for i, r := range sc.TaskResidues {
		if r <= 0 {
			return fmt.Errorf("sim: task %d has %d residues", i, r)
		}
	}
	if len(sc.Slaves) == 0 {
		return fmt.Errorf("sim: scenario %q has no slaves", sc.Name)
	}
	if sc.Policy != "" {
		if _, err := sched.NewPolicy(sc.Policy); err != nil {
			return err
		}
	}
	seen := map[string]bool{}
	for _, s := range sc.Slaves {
		pe := s.pe()
		if err := pe.Validate(); err != nil {
			return err
		}
		if seen[s.Name] {
			return fmt.Errorf("sim: duplicate slave name %q", s.Name)
		}
		seen[s.Name] = true
		if s.CrashAt != 0 && s.HangAt != 0 {
			return fmt.Errorf("sim: slave %s has both CrashAt and HangAt", s.Name)
		}
		if s.RecoverAt != 0 {
			failAt := s.CrashAt
			if failAt == 0 {
				failAt = s.HangAt
			}
			if failAt == 0 {
				return fmt.Errorf("sim: slave %s has RecoverAt without CrashAt/HangAt", s.Name)
			}
			if s.RecoverAt <= failAt {
				return fmt.Errorf("sim: slave %s recovers at %v before failing at %v", s.Name, s.RecoverAt, failAt)
			}
		}
		for _, r := range s.Rules {
			if r.Prob < 0 || r.Prob > 1 {
				return fmt.Errorf("sim: slave %s rule probability %v outside [0,1]", s.Name, r.Prob)
			}
		}
	}
	for i, r := range sc.Restarts {
		if r.At <= 0 || r.DownFor <= 0 {
			return fmt.Errorf("sim: restart %d has non-positive At/DownFor", i)
		}
		if i > 0 && r.At <= sc.Restarts[i-1].At+sc.Restarts[i-1].DownFor {
			return fmt.Errorf("sim: restart %d overlaps restart %d", i, i-1)
		}
	}
	if sc.CallTimeout <= 2*sc.Latency {
		return fmt.Errorf("sim: CallTimeout %v must exceed a round trip (2×%v)", sc.CallTimeout, sc.Latency)
	}
	return nil
}

// pe builds the platform speed model for a slave spec.
func (s SlaveSpec) pe() *platform.PE {
	return &platform.PE{
		Name:         s.Name,
		Kind:         s.Kind,
		CellsPerSec:  s.Speed,
		TaskOverhead: s.Overhead,
		Jitter:       s.Jitter,
		Load:         s.Slow,
		Declared:     s.Declared,
	}
}
