package farrar

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// BenchmarkLanesByLen is the kernel sweep behind laneMaxQuery: the lane
// kernel against striped SSE2 and AVX2 on BenchmarkScore8ByLen's targets
// (300 random 100-700 aa), one op scoring all of them with the 8-bit tier
// alone. MCUPS counts real cells only, so idle lanes in the layout's tail
// cost the lanes their share. The length where avx2 catches up with the
// lanes is the crossover.
func BenchmarkLanesByLen(b *testing.B) {
	skipWithoutLanes(b)
	rng := rand.New(rand.NewSource(0xB7))
	targets := make([][]byte, 300)
	var residues int64
	for i := range targets {
		targets[i] = randProtein(rng, 100+rng.Intn(601))
		residues += int64(len(targets[i]))
	}
	l := buildLanes(targets, protScheme().Matrix.Alphabet())
	for _, m := range []int{10, 25, 40, 64, 100, 200, 400, 600, 800, 1000} {
		k, err := NewKernel(randProtein(rng, m), protScheme())
		if err != nil {
			b.Fatal(err)
		}
		cells := int64(m) * residues
		report := func(b *testing.B, start time.Time) {
			if elapsed := time.Since(start); elapsed > 0 {
				b.ReportMetric(float64(cells)*float64(b.N)/elapsed.Seconds()/1e6, "MCUPS")
			}
		}
		b.Run(fmt.Sprintf("m=%d/lanes", m), func(b *testing.B) {
			start := time.Now()
			for i := 0; i < b.N; i++ {
				laneRun(k, l, nativeLanes, len(l.cols))
			}
			report(b, start)
		})
		for _, path := range []struct {
			name  string
			lanes int
		}{{"sse2", 16}, {"avx2", 32}} {
			b.Run(fmt.Sprintf("m=%d/%s", m, path.name), func(b *testing.B) {
				kp := onLanes(k, path.lanes)
				start := time.Now()
				for i := 0; i < b.N; i++ {
					for _, d := range targets {
						kp.scoreNative8(d)
					}
				}
				report(b, start)
			})
		}
	}
}
