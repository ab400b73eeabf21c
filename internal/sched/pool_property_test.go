package sched

import (
	"math/rand"
	"testing"
	"time"
)

// TestPoolRandomOpsInvariants drives the pool with random valid operations
// and checks the counting invariants and state machine after every step.
func TestPoolRandomOpsInvariants(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		p := NewPool(mkTasks(n))
		nSlaves := 1 + rng.Intn(5)

		// executing[taskID] = set of slaves holding it, mirrored model.
		model := map[TaskID]map[SlaveID]bool{}
		finished := map[TaskID]bool{}

		check := func() {
			t.Helper()
			if p.Ready()+p.ExecutingCount()+p.Finished() != n {
				t.Fatalf("seed %d: counts %d+%d+%d != %d", seed, p.Ready(), p.ExecutingCount(), p.Finished(), n)
			}
			if p.Finished() != len(finished) {
				t.Fatalf("seed %d: finished %d != model %d", seed, p.Finished(), len(finished))
			}
			if p.ExecutingCount() != len(model) {
				t.Fatalf("seed %d: executing %d != model %d", seed, p.ExecutingCount(), len(model))
			}
			for id, slaves := range model {
				if p.StateOf(id) != Executing {
					t.Fatalf("seed %d: task %d should be executing", seed, id)
				}
				if got := len(p.Executors(id)); got != len(slaves) {
					t.Fatalf("seed %d: task %d executors %d != %d", seed, id, got, len(slaves))
				}
			}
		}

		for step := 0; step < 500 && !p.Done(); step++ {
			now := time.Duration(step) * time.Second
			s := SlaveID(rng.Intn(nSlaves))
			switch rng.Intn(4) {
			case 0: // take ready
				k := 1 + rng.Intn(3)
				for _, task := range p.TakeReadyFunc(k, nil, s, now) {
					if model[task.ID] == nil {
						model[task.ID] = map[SlaveID]bool{}
					}
					model[task.ID][s] = true
				}
			case 1: // add a replica executor to a random executing task
				if ids := p.ExecutingTasks(); len(ids) > 0 {
					id := ids[rng.Intn(len(ids))]
					if !model[id][s] {
						p.AddExecutor(id, s, now)
						model[id][s] = true
					}
				}
			case 2: // a random executor completes its task
				if ids := p.ExecutingTasks(); len(ids) > 0 {
					id := ids[rng.Intn(len(ids))]
					for exec := range model[id] {
						first, others := p.Complete(id, exec, now)
						if !first {
							t.Fatalf("seed %d: first completion rejected", seed)
						}
						if len(others) != len(model[id])-1 {
							t.Fatalf("seed %d: others %d != %d", seed, len(others), len(model[id])-1)
						}
						delete(model, id)
						finished[id] = true
						break
					}
				}
			case 3: // a random executor abandons its task
				if ids := p.ExecutingTasks(); len(ids) > 0 {
					id := ids[rng.Intn(len(ids))]
					for exec := range model[id] {
						p.Abandon(id, exec)
						delete(model[id], exec)
						if len(model[id]) == 0 {
							delete(model, id) // requeued
						}
						break
					}
				}
			}
			check()
		}
	}
}
