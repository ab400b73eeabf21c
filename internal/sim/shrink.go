package sim

import (
	"time"

	"repro/internal/platform"
	"repro/internal/wire"
)

// Shrink reduces a failing scenario to a smaller one that still fails,
// greedily and to a fixpoint: drop master restarts, strip each slave's
// faults (rules, crash/hang/slow schedules), remove non-essential slaves,
// then halve the task list. failing reports whether a candidate scenario
// still reproduces the failure (typically: Run(sc) has violations); budget
// caps how many candidates are tried. The result is the minimal replayable
// reproducer the property tests print.
func Shrink(sc Scenario, failing func(Scenario) bool, budget int) Scenario {
	try := func(cand Scenario) bool {
		if budget <= 0 {
			return false
		}
		budget--
		if cand.Validate() != nil {
			return false
		}
		return failing(cand)
	}
	for changed := true; changed && budget > 0; {
		changed = false
		for _, cand := range candidates(sc) {
			if try(cand) {
				sc = cand
				changed = true
				break
			}
		}
	}
	return sc
}

// candidates enumerates one-step reductions of a scenario, most aggressive
// first so successful shrinks skip many later candidates.
func candidates(sc Scenario) []Scenario {
	var out []Scenario

	// Halve the task list.
	if n := len(sc.TaskResidues); n > 1 {
		c := clone(sc)
		c.TaskResidues = append([]int(nil), sc.TaskResidues[:(n+1)/2]...)
		out = append(out, c)
	}
	// Drop whole slaves (never the first: it is the guaranteed-healthy one
	// in generated scenarios, and something must finish the job).
	for i := len(sc.Slaves) - 1; i > 0; i-- {
		c := clone(sc)
		c.Slaves = append(append([]SlaveSpec(nil), sc.Slaves[:i]...), sc.Slaves[i+1:]...)
		out = append(out, c)
	}
	// Drop all master restarts, then individual ones.
	if len(sc.Restarts) > 0 {
		c := clone(sc)
		c.Restarts = nil
		out = append(out, c)
	}
	for i := range sc.Restarts {
		if len(sc.Restarts) <= 1 {
			break
		}
		c := clone(sc)
		c.Restarts = append(append([]MasterRestart(nil), sc.Restarts[:i]...), sc.Restarts[i+1:]...)
		out = append(out, c)
	}
	// Strip fault features per slave.
	for i, s := range sc.Slaves {
		if s.CrashAt != 0 || s.HangAt != 0 {
			c := clone(sc)
			c.Slaves[i].CrashAt, c.Slaves[i].HangAt, c.Slaves[i].RecoverAt = 0, 0, 0
			out = append(out, c)
		}
		if s.RecoverAt != 0 {
			c := clone(sc)
			c.Slaves[i].RecoverAt = 0
			out = append(out, c)
		}
		if len(s.Slow) > 0 {
			c := clone(sc)
			c.Slaves[i].Slow = nil
			out = append(out, c)
		}
		if len(s.Rules) > 0 {
			c := clone(sc)
			c.Slaves[i].Rules = nil
			out = append(out, c)
		}
		for j := range s.Rules {
			if len(s.Rules) <= 1 {
				break
			}
			c := clone(sc)
			c.Slaves[i].Rules = append(append([]wire.Rule(nil), s.Rules[:j]...), s.Rules[j+1:]...)
			out = append(out, c)
		}
		if s.Jitter != 0 {
			c := clone(sc)
			c.Slaves[i].Jitter = 0
			out = append(out, c)
		}
	}
	// Turn knobs off.
	if sc.Adjust {
		c := clone(sc)
		c.Adjust = false
		out = append(out, c)
	}
	if sc.Lease != 0 {
		c := clone(sc)
		c.Lease = 0
		out = append(out, c)
	}
	if sc.Latency > time.Millisecond {
		c := clone(sc)
		c.Latency = time.Millisecond
		out = append(out, c)
	}
	return out
}

// clone deep-copies the slice-valued fields so candidate mutations never
// alias the original scenario.
func clone(sc Scenario) Scenario {
	c := sc
	c.TaskResidues = append([]int(nil), sc.TaskResidues...)
	c.Slaves = make([]SlaveSpec, len(sc.Slaves))
	for i, s := range sc.Slaves {
		cs := s
		cs.Slow = append([]platform.LoadPhase(nil), s.Slow...)
		cs.Rules = append([]wire.Rule(nil), s.Rules...)
		c.Slaves[i] = cs
	}
	c.Restarts = append([]MasterRestart(nil), sc.Restarts...)
	return c
}
