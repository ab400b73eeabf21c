package sim

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/wire"
)

// baseline is a small healthy cluster: no faults at all.
func baseline() Scenario {
	return Scenario{
		Name:         "baseline",
		Seed:         1,
		TaskResidues: []int{400, 800, 1200, 600},
		Policy:       "PSS",
		Lease:        2 * time.Second,
		Slaves: []SlaveSpec{
			{Name: "gpu0", Kind: sched.KindGPU, Speed: 2e9, Overhead: 5 * time.Millisecond},
			{Name: "cpu0", Kind: sched.KindCPU, Speed: 4e8},
		},
	}
}

func mustRun(t *testing.T, sc Scenario) *Report {
	t.Helper()
	rep, err := Run(sc)
	if err != nil {
		t.Fatalf("%s: %v", sc.Name, err)
	}
	return rep
}

func requireClean(t *testing.T, rep *Report) {
	t.Helper()
	if !rep.Done {
		t.Fatalf("%s (seed %d): job did not finish: %v", rep.Name, rep.Seed, rep.Violations)
	}
	if len(rep.Violations) > 0 {
		t.Fatalf("%s (seed %d): invariants violated:\n  %v", rep.Name, rep.Seed, rep.Violations)
	}
}

func TestBaselineRunsClean(t *testing.T) {
	rep := mustRun(t, baseline())
	requireClean(t, rep)
	if len(rep.Results) != 4 {
		t.Fatalf("got %d results, want 4", len(rep.Results))
	}
	if rep.Makespan <= 0 {
		t.Fatal("zero makespan")
	}
}

// TestDeterminism is the acceptance-criteria check: rerunning the same
// scenario+seed must produce byte-identical event logs and results, pinned
// by the report fingerprint. Exercised on a chaotic scenario — faults,
// restarts — where nondeterminism would actually hide.
func TestDeterminism(t *testing.T) {
	chaotic := baseline()
	chaotic.Name = "chaotic"
	chaotic.Adjust = true
	chaotic.Slaves = append(chaotic.Slaves, SlaveSpec{
		Name: "flaky", Kind: sched.KindCPU, Speed: 3e8, Jitter: 0.08,
		HangAt: 600 * time.Millisecond, RecoverAt: 2500 * time.Millisecond,
		Rules: []wire.Rule{
			{Kind: wire.CompleteKind, Action: wire.FaultDrop, Prob: 0.5, Count: 5},
			{Kind: wire.ProgressKind, Action: wire.FaultDelay, Delay: 80 * time.Millisecond, Prob: 0.3, Count: 8},
		},
	})
	chaotic.Restarts = []MasterRestart{{At: 900 * time.Millisecond, DownFor: 400 * time.Millisecond}}

	for _, sc := range []Scenario{baseline(), chaotic} {
		a := mustRun(t, sc)
		b := mustRun(t, sc)
		requireClean(t, a)
		if a.Fingerprint != b.Fingerprint {
			t.Errorf("%s: fingerprints differ across reruns: %s vs %s", sc.Name, a.Fingerprint, b.Fingerprint)
		}
		if !bytes.Equal(a.EventLog, b.EventLog) {
			t.Errorf("%s: event logs differ across reruns", sc.Name)
		}
		aj, _ := json.Marshal(a.Results)
		bj, _ := json.Marshal(b.Results)
		if !bytes.Equal(aj, bj) {
			t.Errorf("%s: results differ across reruns:\n%s\n%s", sc.Name, aj, bj)
		}
	}
}

// TestSlaveCrashRecovers: a slave dying mid-run must not lose its tasks.
func TestSlaveCrashRecovers(t *testing.T) {
	sc := baseline()
	sc.Name = "crash"
	sc.Slaves[1].CrashAt = 300 * time.Millisecond
	rep := mustRun(t, sc)
	requireClean(t, rep)
}

// TestHungSlaveNeedsLease: a silently wedged slave stalls its tasks until
// the lease expires; with the lease on, the job still finishes and the
// expiry is accounted.
func TestHungSlaveNeedsLease(t *testing.T) {
	sc := baseline()
	sc.Name = "hang"
	sc.TaskResidues = []int{4000, 4000, 4000, 4000}
	sc.Slaves[1].HangAt = 200 * time.Millisecond
	rep := mustRun(t, sc)
	requireClean(t, rep)
	if rep.Expired == 0 {
		t.Error("hung slave never lease-expired")
	}
}

// TestMasterRestartRecovers: the master dies mid-job and recovers from its
// checkpoint; finished tasks stay finished and the rest re-run.
func TestMasterRestartRecovers(t *testing.T) {
	sc := baseline()
	sc.Name = "restart"
	sc.TaskResidues = []int{3000, 3000, 3000, 3000, 3000}
	sc.Restarts = []MasterRestart{
		{At: 500 * time.Millisecond, DownFor: 300 * time.Millisecond},
		{At: 2 * time.Second, DownFor: 200 * time.Millisecond},
	}
	rep := mustRun(t, sc)
	requireClean(t, rep)
	if rep.Restarts != 2 {
		t.Errorf("counted %d restarts, want 2", rep.Restarts)
	}
}

// TestAdjustmentReplicates: with one very slow slave and adjustment on, a
// fast idle slave should replicate the straggler's task and win.
func TestAdjustmentReplicates(t *testing.T) {
	sc := Scenario{
		Name:         "adjust",
		Seed:         7,
		TaskResidues: []int{500, 500, 8000},
		Policy:       "SS",
		Adjust:       true,
		Lease:        10 * time.Second,
		Slaves: []SlaveSpec{
			{Name: "fast", Kind: sched.KindGPU, Speed: 5e9},
			{Name: "slow", Kind: sched.KindCPU, Speed: 2e7},
		},
	}
	rep := mustRun(t, sc)
	requireClean(t, rep)
	if rep.Replicas == 0 {
		t.Error("workload adjustment never replicated the straggler's task")
	}
}

// TestValidateRejects pins scenario validation.
func TestValidateRejects(t *testing.T) {
	cases := map[string]func(*Scenario){
		"no tasks":          func(sc *Scenario) { sc.TaskResidues = nil },
		"no slaves":         func(sc *Scenario) { sc.Slaves = nil },
		"bad policy":        func(sc *Scenario) { sc.Policy = "nope" },
		"dup names":         func(sc *Scenario) { sc.Slaves[1].Name = sc.Slaves[0].Name },
		"crash and hang":    func(sc *Scenario) { sc.Slaves[0].CrashAt = 1; sc.Slaves[0].HangAt = 1 },
		"orphan recover":    func(sc *Scenario) { sc.Slaves[0].RecoverAt = time.Second },
		"recover too early": func(sc *Scenario) { sc.Slaves[0].CrashAt = time.Second; sc.Slaves[0].RecoverAt = time.Second },
		"overlap restarts": func(sc *Scenario) {
			sc.Restarts = []MasterRestart{{At: time.Second, DownFor: time.Second}, {At: 1500 * time.Millisecond, DownFor: time.Second}}
		},
		"tiny timeout": func(sc *Scenario) { sc.Latency = 50 * time.Millisecond; sc.CallTimeout = 60 * time.Millisecond },
	}
	for name, mutate := range cases {
		sc := baseline()
		mutate(&sc)
		if err := sc.Validate(); err == nil {
			t.Errorf("%s: validation passed, want error", name)
		}
	}
	if err := baseline().Validate(); err != nil {
		t.Errorf("baseline rejected: %v", err)
	}
}
