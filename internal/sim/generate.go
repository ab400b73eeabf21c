package sim

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/wire"
)

// Generate derives a randomized chaos scenario from a seed: a small hybrid
// cluster (one slave always healthy and fault-free, so the job can always
// finish) with seeded crashes, hangs, slow-downs, link faults and master
// restarts. The scenario — and therefore the whole run — is a pure
// function of the seed, which is all a failure report needs to replay.
func Generate(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed))
	sc := Scenario{
		Name:        fmt.Sprintf("gen-%d", seed),
		Seed:        seed,
		Policy:      [...]string{"SS", "PSS"}[rng.Intn(2)],
		Adjust:      rng.Intn(2) == 0,
		Lease:       2*time.Second + time.Duration(rng.Intn(3000))*time.Millisecond,
		NotifyEvery: 250 * time.Millisecond,
		PollEvery:   500 * time.Millisecond,
		Latency:     time.Duration(1+rng.Intn(15)) * time.Millisecond,
		CallTimeout: time.Second,
	}
	rng.Intn(2) // the draw a retired option took: every later draw of a seed stays where it was
	nTasks := 3 + rng.Intn(8)
	for i := 0; i < nTasks; i++ {
		sc.TaskResidues = append(sc.TaskResidues, 200+rng.Intn(1800))
	}

	nSlaves := 2 + rng.Intn(4)
	for i := 0; i < nSlaves; i++ {
		kind := sched.KindCPU
		speed := 2e8 + rng.Float64()*8e8
		if rng.Intn(2) == 0 {
			kind = sched.KindGPU
			speed = 1e9 + rng.Float64()*4e9
		}
		s := SlaveSpec{
			Name:     fmt.Sprintf("s%d", i),
			Kind:     kind,
			Speed:    speed,
			Jitter:   rng.Float64() * 0.1,
			Overhead: time.Duration(rng.Intn(20)) * time.Millisecond,
		}
		if i > 0 {
			s = addFaults(rng, s)
		}
		sc.Slaves = append(sc.Slaves, s)
	}

	for n := rng.Intn(3); n > 0; n-- {
		at := time.Duration(1+rng.Intn(6000)) * time.Millisecond
		if len(sc.Restarts) > 0 {
			prev := sc.Restarts[len(sc.Restarts)-1]
			at += prev.At + prev.DownFor
		}
		sc.Restarts = append(sc.Restarts, MasterRestart{
			At:      at,
			DownFor: time.Duration(200+rng.Intn(800)) * time.Millisecond,
		})
	}
	return sc
}

// addFaults rolls one fault family for a non-essential slave: a crash, a
// hang (with optional recovery), a slow-down window, or a set of bounded
// link-fault rules. Bounded means the faults cannot starve the job
// forever: probabilistic rules stay below certainty and counted rules run
// out, so the always-healthy slave eventually drains the pool.
func addFaults(rng *rand.Rand, s SlaveSpec) SlaveSpec {
	switch rng.Intn(5) {
	case 0:
		s.CrashAt = time.Duration(500+rng.Intn(5000)) * time.Millisecond
		if rng.Intn(2) == 0 {
			s.RecoverAt = s.CrashAt + time.Duration(500+rng.Intn(4000))*time.Millisecond
		}
	case 1:
		s.HangAt = time.Duration(500+rng.Intn(5000)) * time.Millisecond
		if rng.Intn(2) == 0 {
			s.RecoverAt = s.HangAt + time.Duration(500+rng.Intn(4000))*time.Millisecond
		}
	case 2:
		from := time.Duration(rng.Intn(3000)) * time.Millisecond
		s.Slow = append(s.Slow, platform.LoadPhase{
			From:     from,
			To:       from + time.Duration(1+rng.Intn(5))*time.Second,
			Capacity: 0.05 + rng.Float64()*0.5,
		})
	case 3:
		kinds := []wire.MsgKind{wire.AnyMsg, wire.ProgressKind, wire.CompleteKind, wire.RequestKind}
		actions := []wire.FaultAction{wire.FaultError, wire.FaultDrop, wire.FaultDelay, wire.FaultDup, wire.FaultHang}
		for n := 1 + rng.Intn(3); n > 0; n-- {
			r := wire.Rule{
				Kind:   kinds[rng.Intn(len(kinds))],
				Action: actions[rng.Intn(len(actions))],
				After:  rng.Intn(10),
				Prob:   0.1 + rng.Float64()*0.4,
			}
			if r.Action == wire.FaultDelay {
				r.Delay = time.Duration(10+rng.Intn(400)) * time.Millisecond
			}
			// Unbounded high-probability faults could keep a slave's link
			// dark forever; cap how often each rule may fire.
			r.Count = 1 + rng.Intn(20)
			s.Rules = append(s.Rules, r)
		}
	case 4:
		// Healthy extra slave: chaos also needs witnesses.
	}
	return s
}
