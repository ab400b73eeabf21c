package sim

import (
	"fmt"
	"time"

	"repro/internal/sched"
)

// ShardFailover is the cluster backend's fault story reduced to one shard:
// a primary and a replica scan the same task set, the primary crashes
// mid-scan (its connection drops, so the master hears SlaveGone and
// requeues its work), and the replica must finish every task exactly once
// — the invariant library rejects both lost and double-completed tasks.
// The lease is armed as the backstop the real fleet also carries.
func ShardFailover(seed int64) Scenario {
	return Scenario{
		Name:         "shard-failover",
		Seed:         seed,
		TaskResidues: []int{900, 700, 1100, 800},
		Policy:       "PSS",
		Adjust:       true,
		Lease:        2 * time.Second,
		Slaves: []SlaveSpec{
			{Name: "shard0-primary", Kind: sched.KindCPU, Speed: 5e8, CrashAt: time.Second},
			{Name: "shard0-replica", Kind: sched.KindCPU, Speed: 4e8},
		},
	}
}

// Named returns a curated scenario by name with the given seed — the chaos
// CI entry point (swsim -named). Unlike Generate's seeded soup, a named
// scenario pins its fault schedule so the regression it guards stays
// guarded.
func Named(name string, seed int64) (Scenario, error) {
	switch name {
	case "shard-failover":
		return ShardFailover(seed), nil
	default:
		return Scenario{}, fmt.Errorf("sim: unknown named scenario %q", name)
	}
}
