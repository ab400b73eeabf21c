package farrar

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// onLanes returns a copy of k whose native 8-bit tier is packed for the
// given byte lanes, with its own scratch and zero Stats. The caller must
// check that the host runs that path.
func onLanes(k *Kernel, lanes int) *Kernel {
	c := *k
	c.buf, c.stats = nil, Stats{}
	c.packNative8(lanes)
	return &c
}

// hostPaths returns one copy of k per native 8-bit path this host runs,
// keyed by the path's ISA name: SSE2 always, AVX2 where the probe found it.
func hostPaths(k *Kernel) map[string]*Kernel {
	paths := map[string]*Kernel{"sse2": onLanes(k, 16)}
	if hasAVX2 {
		paths["avx2"] = onLanes(k, 32)
	}
	return paths
}

// nativeTier is the native 8-bit kernel on the given byte lanes as a
// benchTier entry point. It skips b on a host without that path.
func nativeTier(b *testing.B, lanes int) func(*Kernel, []byte) (int, bool) {
	if lanes == 32 && !hasAVX2 {
		b.Skip("host lacks AVX2: the 32-lane kernel cannot run here")
	}
	return func(k *Kernel, d []byte) (int, bool) {
		if k.native.lanes != lanes {
			k.packNative8(lanes)
		}
		return k.scoreNative8(d)
	}
}

// TestNewKernelPicksPath pins the native path for (ISA, query length):
// AVX2 from avx2MinQuery residues up on a host that has it, SSE2
// otherwise, and a kernel on this host follows the same table.
func TestNewKernelPicksPath(t *testing.T) {
	for _, tc := range []struct {
		avx2     bool
		m, lanes int
	}{
		{false, 1, 16},
		{false, avx2MinQuery, 16},
		{false, 600, 16},
		{true, 1, 16},
		{true, 40, 16},
		{true, avx2MinQuery - 1, 16},
		{true, avx2MinQuery, 32},
		{true, 600, 32},
	} {
		if got := native8Lanes(tc.avx2, tc.m); got != tc.lanes {
			t.Errorf("native8Lanes(avx2=%v, m=%d) = %d, want %d", tc.avx2, tc.m, got, tc.lanes)
		}
	}
	rng := rand.New(rand.NewSource(0x15A))
	for _, m := range []int{1, avx2MinQuery - 1, avx2MinQuery, 600} {
		k, err := NewKernel(randProtein(rng, m), protScheme())
		if err != nil {
			t.Fatal(err)
		}
		k.Score(randProtein(rng, 50))
		if want := native8Lanes(hasAVX2, m); k.native.lanes != want {
			t.Errorf("m=%d: the first Score packed %d lanes, want %d (AVX2 %v)", m, k.native.lanes, want, hasAVX2)
		}
	}
	want := map[bool]string{true: "avx2", false: "sse2"}[hasAVX2]
	if hasAVX512VBMI {
		want = "avx512vbmi" // the widest path is the 64-lane scan; striped stays AVX2
	}
	if ISA() != want {
		t.Errorf("ISA() = %q, want %q", ISA(), want)
	}
}

func BenchmarkScore8SSE(b *testing.B)  { benchTier(b, nativeTier(b, 16)) }
func BenchmarkScore8AVX2(b *testing.B) { benchTier(b, nativeTier(b, 32)) }

// BenchmarkScore8ByLen is the sweep behind avx2MinQuery: SSE2 against
// AVX2 at serving query lengths, one op scoring 300 random 100-700 aa
// targets with the 8-bit tier alone. The length where avx2 first beats
// sse2 is the crossover.
func BenchmarkScore8ByLen(b *testing.B) {
	rng := rand.New(rand.NewSource(0xB7))
	targets := make([][]byte, 300)
	for i := range targets {
		targets[i] = randProtein(rng, 100+rng.Intn(601))
	}
	for _, m := range []int{10, 25, 40, 64, 100, 200, 400, 600} {
		k, err := NewKernel(randProtein(rng, m), protScheme())
		if err != nil {
			b.Fatal(err)
		}
		for _, path := range []struct {
			name  string
			lanes int
		}{{"sse2", 16}, {"avx2", 32}} {
			b.Run(fmt.Sprintf("m=%d/%s", m, path.name), func(b *testing.B) {
				tier := nativeTier(b, path.lanes)
				tier(k, targets[0]) // pack the profile outside the timed loop
				var cells int64
				b.ResetTimer()
				start := time.Now()
				for i := 0; i < b.N; i++ {
					for _, d := range targets {
						tier(k, d)
						cells += k.Cells(d)
					}
				}
				if elapsed := time.Since(start); elapsed > 0 {
					b.ReportMetric(float64(cells)/elapsed.Seconds()/1e6, "MCUPS")
				}
			})
		}
	}
}
