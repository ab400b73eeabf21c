// Package sched is the purity golden fixture. Its directory sits under
// testdata/purity/internal/sched, so the loader's synthetic import path
// matches the analyzer's internal/sched scope and the checks fire here
// exactly as they do on the real scheduler package.
package sched

import (
	"math/rand"
	"time"

	_ "os" // want "pure package sched imports os"
)

// Tick is the clean idiom the contract demands: the current time arrives
// as an argument and randomness comes from an explicitly seeded
// generator, so the same code is deterministic under the simulator.
func Tick(now time.Time, rng *rand.Rand) time.Duration {
	jitter := time.Duration(rng.Int63n(int64(time.Second)))
	return now.Add(jitter).Sub(now)
}

// NewRNG uses the allowed constructors: a seeded *rand.Rand is
// deterministic, which is the property the analyzer guards.
func NewRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

func violations() {
	_ = time.Now()               // want "time.Now in pure package sched"
	time.Sleep(time.Millisecond) // want "time.Sleep in pure package sched"
	_ = rand.Intn(10)            // want "rand.Intn draws from the global source"
	go violations()              // want "go statement in pure package sched"
}
