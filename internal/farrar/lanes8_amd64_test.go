package farrar

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// hostLanes returns the native lane kernels this host runs, keyed by the
// ISA name: lanes64 with AVX-512 BW and VBMI, lanesAVX2 with AVX2.
func hostLanes() map[string]laneKernel {
	paths := map[string]laneKernel{}
	if hasAVX512VBMI {
		paths["avx512vbmi"] = laneKernel{64, lanes64}
	}
	if hasAVX2 {
		paths["avx2"] = laneKernel{32, lanesAVX2}
	}
	return paths
}

// BenchmarkLanesByLen is the kernel sweep behind laneMaxQuery: each lane
// kernel the host runs (lanes32, and lanes64 with AVX-512 VBMI) against
// the striped AVX2 kernel on 300 random 100-700 aa targets, one op
// scoring all of them with the 8-bit tier alone, at queries of 10 to 5000
// aa. MCUPS counts real cells only, so idle lanes in the layout's tail
// cost the lanes their share. The length where avx2 catches up with a
// lane width is its crossover.
func BenchmarkLanesByLen(b *testing.B) {
	host := hostLanes()
	if len(host) == 0 {
		b.Skip("host lacks AVX2: no lane kernel can run here")
	}
	var kernels []laneKernel
	for _, kern := range host {
		kernels = append(kernels, kern)
	}
	slices.SortFunc(kernels, func(x, y laneKernel) int { return x.width - y.width })
	rng := rand.New(rand.NewSource(0xB7))
	targets := make([][]byte, 300)
	var residues int64
	for i := range targets {
		targets[i] = randProtein(rng, 100+rng.Intn(601))
		residues += int64(len(targets[i]))
	}
	layouts := map[int]*laneLayout{}
	for _, kern := range kernels {
		layouts[kern.width] = buildLanes(targets, protScheme().Matrix.Alphabet(), kern.width)
	}
	for _, m := range []int{10, 25, 40, 64, 100, 200, 400, 600, 800, 1000, 2000, 5000} {
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
		for _, kern := range kernels {
			l := layouts[kern.width]
			b.Run(fmt.Sprintf("m=%d/lanes%d", m, kern.width), func(b *testing.B) {
				start := time.Now()
				for i := 0; i < b.N; i++ {
					laneRun(k, l, kern, len(l.cols))
				}
				report(b, start)
			})
		}
		b.Run(fmt.Sprintf("m=%d/avx2", m), func(b *testing.B) {
			start := time.Now()
			for i := 0; i < b.N; i++ {
				for _, d := range targets {
					k.scoreNative8(d)
				}
			}
			report(b, start)
		})
	}
}
