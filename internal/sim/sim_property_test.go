package sim

import (
	"encoding/json"
	"fmt"
	"testing"
)

// propertySeeds is the fixed seed matrix `make test` and CI run on every
// build: a deterministic slice of the generator's scenario space. The
// swsim smoke (and local soaks with -scenarios) sweep far wider; this
// matrix is the fast regression tripwire. Failures print a shrunken,
// replayable scenario — paste the JSON into `swsim -scenario-json`, or
// just re-run the seed.
var propertySeeds = []int64{
	1, 2, 3, 5, 8, 13, 21, 34, 55, 89,
	101, 164, 178, 181, 185, 188, // past regressions, among them lost-Assign starvation
	500, 777, 999, 4242,
}

// TestGeneratedScenariosHoldInvariants runs the seed matrix through the
// full chaos generator and requires every invariant to hold. On failure
// the schedule is shrunk to a minimal reproducer before reporting.
func TestGeneratedScenariosHoldInvariants(t *testing.T) {
	for _, seed := range propertySeeds {
		seed := seed
		t.Run(Generate(seed).Name, func(t *testing.T) {
			sc := Generate(seed)
			rep := mustRun(t, sc)
			if len(rep.Violations) == 0 && rep.Done {
				return
			}
			min := Shrink(sc, stillFailing, 400)
			minRep, _ := Run(min)
			repro, _ := json.MarshalIndent(min, "", "  ")
			t.Fatalf("seed %d violated invariants: %v\nshrunken reproducer (%d tasks, %d slaves, violations %v):\n%s",
				seed, rep.Violations, len(min.TaskResidues), len(min.Slaves), minRep.Violations, repro)
		})
	}
}

// stillFailing is the shrinker's oracle: does this candidate scenario
// still violate any invariant?
func stillFailing(sc Scenario) bool {
	rep, err := Run(sc)
	if err != nil {
		return false
	}
	return !rep.Done || len(rep.Violations) > 0
}

// TestShrinkReducesFailingScenario pins the shrinker itself: plant an
// unrecoverable invariant breaker (every slave crashes for good, so the
// job can never finish) in a scenario padded with irrelevant chaos —
// extra slaves, link-fault rules, slow-down windows, restarts — and the
// shrinker must strip the padding while keeping the failure.
func TestShrinkReducesFailingScenario(t *testing.T) {
	sc := Generate(3)
	sc.Slaves = append(sc.Slaves, Generate(4).Slaves...)
	for i := range sc.Slaves {
		s := &sc.Slaves[i]
		s.Name = fmt.Sprintf("m%d", i)
		s.CrashAt = 1000000 // 1ms: dead before doing anything
		s.HangAt = 0
		s.RecoverAt = 0
	}
	if !stillFailing(sc) {
		t.Fatal("planted scenario does not fail; test setup broken")
	}
	min := Shrink(sc, stillFailing, 600)
	if !stillFailing(min) {
		t.Fatal("shrink lost the failure")
	}
	if len(min.Slaves) >= len(sc.Slaves) || len(min.TaskResidues) >= len(sc.TaskResidues) {
		t.Errorf("shrink did not reduce: %d->%d slaves, %d->%d tasks",
			len(sc.Slaves), len(min.Slaves), len(sc.TaskResidues), len(min.TaskResidues))
	}
	for i, s := range min.Slaves {
		if len(s.Rules) != 0 || len(s.Slow) != 0 || s.Jitter != 0 {
			t.Errorf("slave %d kept irrelevant chaos: %+v", i, s)
		}
		if s.CrashAt == 0 {
			t.Errorf("slave %d lost the crash that causes the failure", i)
		}
	}
	if len(min.Restarts) != 0 {
		t.Errorf("shrink kept irrelevant master restarts: %v", min.Restarts)
	}
}

// TestGenerateIsDeterministic: the generator is a pure function of the
// seed — the whole property layer depends on that for replayability.
func TestGenerateIsDeterministic(t *testing.T) {
	a, _ := json.Marshal(Generate(42))
	b, _ := json.Marshal(Generate(42))
	if string(a) != string(b) {
		t.Fatalf("Generate(42) differs across calls:\n%s\n%s", a, b)
	}
}
