package farrar

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/score"
	"repro/internal/seq"
	"repro/internal/sw"
)

// diffSchemes is the scheme matrix the differential tests sweep: the
// defaults, lazy-F-heavy combinations (cheap gaps, harsh mismatches),
// linear gaps (open = 0 <= extend, the pathological ordering of the
// lazy-F satellite), an all-negative matrix (best is always 0), and an
// all-positive matrix (Min > 0, the padding-lane regression).
func diffSchemes(t testing.TB) []score.Scheme {
	schemes := []score.Scheme{
		score.DefaultProtein(),
		{Matrix: score.BLOSUM50, Gap: score.AffineGap(12, 2)},
		{Matrix: score.NewMatchMismatch(seq.Protein, 4, -10), Gap: score.AffineGap(1, 1)},
		{Matrix: score.BLOSUM62, Gap: score.LinearGap(1)},
		{Matrix: score.NewMatchMismatch(seq.Protein, 2, -1), Gap: score.LinearGap(3)},
		{Matrix: score.NewMatchMismatch(seq.Protein, -1, -3), Gap: score.AffineGap(2, 1)},
		{Matrix: score.NewMatchMismatch(seq.Protein, 3, 1), Gap: score.AffineGap(5, 2)},
	}
	for i, s := range schemes {
		if err := s.Validate(); err != nil {
			t.Fatalf("scheme %d invalid: %v", i, err)
		}
	}
	return schemes
}

// ladder is what the tests compare between the two implementations: the
// resolved score and the tier decisions that led to it.
type ladder interface {
	Score(target []byte) int
	Stats() Stats
}

// oracle drives the emulated-ISA transcription of a Kernel through the
// same 8-bit -> 16-bit -> scalar ladder as Kernel.Score, counting its tier
// decisions the same way.
type oracle struct {
	k     *Kernel
	stats Stats
}

func (o *oracle) Score(target []byte) int {
	if sc, ok := o.k.ScoreU8(target); ok {
		o.stats.Scored8++
		return sc
	}
	if sc, ok := o.k.ScoreI16(target); ok {
		o.stats.Fallback16++
		return sc
	}
	o.stats.FallbackSW++
	return sw.Score(o.k.query, target, o.k.scheme)
}

func (o *oracle) Stats() Stats { return o.stats }

// kernelPair builds the kernel for a query and the oracle ladder over it.
func kernelPair(t testing.TB, q []byte, s score.Scheme) (*Kernel, *oracle) {
	t.Helper()
	k, err := NewKernel(q, s)
	if err != nil {
		t.Fatalf("kernel: %v", err)
	}
	return k, &oracle{k: k}
}

// checkDifferential runs one (query, target) pair through every tier of
// the implementations and the scalar reference, failing on any
// disagreement: per-tier (score, ok) pairs must be identical between
// every native 8-bit path the host runs (SSE2, and AVX2 where present, on
// amd64, whatever the query length), SWAR and the emulated oracle; a
// target the lane path takes must get the same pair from a lane of every
// lane kernel (the emulated one at both widths, and the 32- and 64-lane
// assembly where the host runs it); and the full ladder must land on the
// reference score.
func checkDifferential(t *testing.T, ks *Kernel, ke *oracle, d []byte, want int) {
	t.Helper()
	s8s, ok8s := ks.ScoreSWAR8(d)
	s8e, ok8e := ks.ScoreU8(d)
	if s8s != s8e || ok8s != ok8e {
		t.Fatalf("8-bit tier diverged: swar=(%d,%v) emulated=(%d,%v)\nq=%s\nd=%s",
			s8s, ok8s, s8e, ok8e, ks.query, d)
	}
	for path, kp := range hostPaths(ks) {
		if s8n, ok8n := kp.scoreNative8(d); s8n != s8e || ok8n != ok8e {
			t.Fatalf("8-bit tier diverged: %s=(%d,%v) emulated=(%d,%v)\nq=%s\nd=%s",
				path, s8n, ok8n, s8e, ok8e, ks.query, d)
		}
	}
	if ks.tier8 && inLanes(len(d)) {
		for path, kern := range lanePaths() {
			l := buildLanes([][]byte{d}, ks.scheme.Matrix.Alphabet(), kern.width)
			_, vmax := laneRun(ks, l, kern, len(l.cols))
			if v := int(vmax[0]); (v < ks.ceiling8()) != ok8e || ok8e && v != s8e {
				t.Fatalf("8-bit tier diverged: %s lane max %d (ceiling %d), emulated=(%d,%v)\nq=%s\nd=%s",
					path, v, ks.ceiling8(), s8e, ok8e, ks.query, d)
			}
		}
	}
	s16s, ok16s := ks.ScoreSWAR16(d)
	s16e, ok16e := ks.ScoreI16(d)
	if s16s != s16e || ok16s != ok16e {
		t.Fatalf("16-bit tier diverged: swar=(%d,%v) emulated=(%d,%v)\nq=%s\nd=%s",
			s16s, ok16s, s16e, ok16e, ks.query, d)
	}
	if ok8s && s8s != want {
		t.Fatalf("8-bit tier wrong: got %d, reference %d\nq=%s\nd=%s", s8s, want, ks.query, d)
	}
	if ok16s && s16s != want {
		t.Fatalf("16-bit tier wrong: got %d, reference %d\nq=%s\nd=%s", s16s, want, ks.query, d)
	}
	if got := ks.Score(d); got != want {
		t.Fatalf("kernel ladder: got %d, reference %d\nq=%s\nd=%s", got, want, ks.query, d)
	}
	if got := ke.Score(d); got != want {
		t.Fatalf("emulated ladder: got %d, reference %d\nq=%s\nd=%s", got, want, ks.query, d)
	}
}

// TestDifferentialSWARvsEmulatedVsScalar is the tentpole's acceptance
// test: random sequences × schemes, SWAR vs emulated vs scalar, with the
// tier decisions (via Stats) required to be identical across
// implementations.
func TestDifferentialSWARvsEmulatedVsScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(0xD1FF))
	for si, s := range diffSchemes(t) {
		for iter := 0; iter < 30; iter++ {
			q := randProtein(rng, 1+rng.Intn(150))
			ks, ke := kernelPair(t, q, s)
			targets := [][]byte{
				mutate(rng, q, 0.3),
				randProtein(rng, 1+rng.Intn(300)),
				randProtein(rng, 1),
				nil,
			}
			for _, d := range targets {
				checkDifferential(t, ks, ke, d, sw.Score(q, d, s))
			}
			if ks.Stats() != ke.Stats() {
				t.Fatalf("scheme %d iter %d: tier stats diverged: swar=%+v emulated=%+v",
					si, iter, ks.Stats(), ke.Stats())
			}
		}
	}
}

// TestDifferentialOverflowLadder drives both implementations through all
// three rungs: a long self-alignment overflows 8-bit into 16-bit, and a
// homopolymer monster overflows 16-bit into the scalar reference.
func TestDifferentialOverflowLadder(t *testing.T) {
	rng := rand.New(rand.NewSource(0x1ADD))
	s := protScheme()

	q := randProtein(rng, 600) // self-score >> 127-bias, < 32767
	ks, ke := kernelPair(t, q, s)
	checkDifferential(t, ks, ke, q, sw.Score(q, q, s))
	for name, st := range map[string]Stats{"swar": ks.Stats(), "emulated": ke.Stats()} {
		if st.Fallback16 == 0 || st.FallbackSW != 0 {
			t.Fatalf("%s: expected a 16-bit fallback, stats %+v", name, st)
		}
	}

	// 3000 tryptophans self-align to 3000*BLOSUM62(W,W) = 33000 > 32767.
	w := make([]byte, 3000)
	for i := range w {
		w[i] = 'W'
	}
	ks, ke = kernelPair(t, w, s)
	checkDifferential(t, ks, ke, w, sw.Score(w, w, s))
	for name, st := range map[string]Stats{"swar": ks.Stats(), "emulated": ke.Stats()} {
		if st.FallbackSW == 0 {
			t.Fatalf("%s: expected a scalar fallback, stats %+v", name, st)
		}
	}
}

// TestTierBoundary125to128 pins the overflow threshold: with
// match=+1/mismatch=-1 the bias is 1, so the 8-bit tier's ceiling is
// 127-bias = 126 (the guard-bit lanes clip at 127) and a score of 125 is
// the largest it may certify. Self-alignments of length L score exactly
// L, putting 125 in the 8-bit tier and 126/127/128 in the 16-bit tier —
// for both implementations.
func TestTierBoundary125to128(t *testing.T) {
	s := score.Scheme{Matrix: score.NewMatchMismatch(seq.Protein, 1, -1), Gap: score.AffineGap(10, 2)}
	for _, tc := range []struct {
		length int
		tier8  bool
	}{
		{125, true},
		{126, false},
		{127, false},
		{128, false},
	} {
		q := make([]byte, tc.length)
		for i := range q {
			q[i] = 'A'
		}
		ks, ke := kernelPair(t, q, s)
		for name, k := range map[string]ladder{"swar": ks, "emulated": ke} {
			if got := k.Score(q); got != tc.length {
				t.Fatalf("%s len %d: score %d, want %d", name, tc.length, got, tc.length)
			}
			st := k.Stats()
			in8 := st.Scored8 == 1 && st.Fallback16 == 0 && st.FallbackSW == 0
			in16 := st.Scored8 == 0 && st.Fallback16 == 1 && st.FallbackSW == 0
			if tc.tier8 && !in8 {
				t.Fatalf("%s: score %d should resolve in the 8-bit tier, stats %+v", name, tc.length, st)
			}
			if !tc.tier8 && !in16 {
				t.Fatalf("%s: score %d should fall back to the 16-bit tier, stats %+v", name, tc.length, st)
			}
		}
	}
}

// TestLazyFPathologicalSchemes targets the lazy-F satellite: gap-open <=
// gap-extend and all-negative matrices keep the F carry alive as long as
// anything can, the regime where striped kernels historically spun or
// returned uncorrected columns. The bounded guard now escalates instead
// of silently continuing, so a mis-score is impossible; this test pins
// that the loops also terminate and agree with the reference.
func TestLazyFPathologicalSchemes(t *testing.T) {
	schemes := []score.Scheme{
		{Matrix: score.NewMatchMismatch(seq.Protein, 5, -20), Gap: score.LinearGap(1)},
		{Matrix: score.NewMatchMismatch(seq.Protein, 3, -12), Gap: score.AffineGap(1, 2)},
		{Matrix: score.NewMatchMismatch(seq.Protein, -2, -9), Gap: score.LinearGap(1)},
		{Matrix: score.BLOSUM62, Gap: score.AffineGap(0+1, 17)},
	}
	rng := rand.New(rand.NewSource(0xF00))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for si, s := range schemes {
			if err := s.Validate(); err != nil {
				t.Errorf("scheme %d: %v", si, err)
				return
			}
			for iter := 0; iter < 25; iter++ {
				q := randProtein(rng, 1+rng.Intn(120))
				d := mutate(rng, q, 0.6)
				ks, ke := kernelPair(t, q, s)
				checkDifferential(t, ks, ke, d, sw.Score(q, d, s))
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("lazy-F correction did not terminate on a pathological scheme")
	}
}

// TestExtremeSchemeWrapGuards is the regression for the silent
// fixed-point wraps the threshold audit found: gap penalties above the
// lane range wrapped in the splat and profile entries above it wrapped in
// the biased lane, producing wrong scores instead of a fallback. Such
// schemes must skip the narrow tiers entirely and still score correctly.
// The 8-bit cases sit one past each admission bound of the guard-bit
// lanes (bias, bias+Max and open+extend must each be at most 127).
func TestExtremeSchemeWrapGuards(t *testing.T) {
	rng := rand.New(rand.NewSource(0xEC0))
	cases := []struct {
		name     string
		s        score.Scheme
		wantTier string
	}{
		// open+extend = 128 sets the byte lanes' guard bit; 16-bit takes over.
		{"gap_oe_over_127", score.Scheme{Matrix: score.BLOSUM62, Gap: score.AffineGap(120, 8)}, Tier16},
		// bias+Max = 126+2 = 128: the biased profile entry needs the guard bit.
		{"bias_plus_max_over_127", score.Scheme{Matrix: score.NewMatchMismatch(seq.Protein, 2, -126), Gap: score.AffineGap(10, 2)}, Tier16},
		// bias = 130 with bias+Max = 125: the bias splat alone breaks the lanes.
		{"bias_over_127", score.Scheme{Matrix: score.NewMatchMismatch(seq.Protein, -5, -130), Gap: score.AffineGap(10, 2)}, Tier16},
		// open+extend = 310 wraps uint8; the 16-bit tier must take over.
		{"gap_oe_over_255", score.Scheme{Matrix: score.BLOSUM62, Gap: score.AffineGap(300, 10)}, Tier16},
		// bias = 400 wraps the biased byte profile; 16-bit handles it.
		{"bias_over_255", score.Scheme{Matrix: score.NewMatchMismatch(seq.Protein, 2, -400), Gap: score.AffineGap(10, 2)}, Tier16},
		// open+extend = 34000 wraps int16 too; only the scalar tier is safe.
		{"gap_oe_over_32767", score.Scheme{Matrix: score.BLOSUM62, Gap: score.AffineGap(33000, 1000)}, TierScalar},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.s.Validate(); err != nil {
				t.Fatal(err)
			}
			for iter := 0; iter < 10; iter++ {
				q := randProtein(rng, 1+rng.Intn(100))
				d := mutate(rng, q, 0.4)
				ks, ke := kernelPair(t, q, tc.s)
				checkDifferential(t, ks, ke, d, sw.Score(q, d, tc.s))
				for name, st := range map[string]Stats{"swar": ks.Stats(), "emulated": ke.Stats()} {
					switch tc.wantTier {
					case Tier16:
						if st.Scored8 != 0 || st.FallbackSW != 0 {
							t.Fatalf("%s: wrapping scheme must resolve in the 16-bit tier, stats %+v", name, st)
						}
					case TierScalar:
						if st.Scored8 != 0 || st.Fallback16 != 0 {
							t.Fatalf("%s: wrapping scheme must resolve in the scalar tier, stats %+v", name, st)
						}
					}
				}
			}
		})
	}
}

// TestAllPositiveMatrixPadding is the padding-lane regression: with
// Min() > 0 the old profiles filled padding lanes with Min, letting
// phantom rows past the query end accumulate score and overtake the true
// maximum. Padding now holds the biased floor, so phantoms can never win.
func TestAllPositiveMatrixPadding(t *testing.T) {
	s := score.Scheme{Matrix: score.NewMatchMismatch(seq.Protein, 3, 1), Gap: score.AffineGap(5, 2)}
	rng := rand.New(rand.NewSource(0xBAD))
	for iter := 0; iter < 40; iter++ {
		// Short queries against longer targets maximise padding lanes and
		// phantom rows.
		q := randProtein(rng, 1+rng.Intn(20))
		d := randProtein(rng, 1+rng.Intn(200))
		ks, ke := kernelPair(t, q, s)
		checkDifferential(t, ks, ke, d, sw.Score(q, d, s))
	}
}

// TestSegmentEdgesAndForeignTargetBytes covers the 16-lane segment edges
// of the SSE2 tier (query lengths 1, 15, 16, 17, 32, 33), the 32-lane ones
// of the AVX2 tier (31, 63, 64, 65, 97: one and several segments, padding
// lanes in both 128-bit halves, and 65 just over avx2MinQuery), and
// target bytes the residue table must route like alpha.Index does: lower
// case, bytes >= 0x80 and bytes outside the alphabet.
func TestSegmentEdgesAndForeignTargetBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5E6))
	foreign := []byte{0, '\n', 'J', 'O', 'U', 'a', 'w', 0x7F, 0x80, 0xC1, 0xFF}
	for si, s := range diffSchemes(t) {
		for _, m := range []int{1, 15, 16, 17, 31, 32, 33, 63, 64, 65, 97} {
			for iter := 0; iter < 6; iter++ {
				q := randProtein(rng, m)
				ks, ke := kernelPair(t, q, s)
				d := mutate(rng, q, 0.3)
				d = append(d, randProtein(rng, rng.Intn(60))...)
				for i := range d {
					if rng.Intn(4) == 0 {
						d[i] = foreign[rng.Intn(len(foreign))]
					}
				}
				checkDifferential(t, ks, ke, d, sw.Score(q, d, s))
				if ks.Stats() != ke.Stats() {
					t.Fatalf("scheme %d len %d: tier stats diverged: kernel=%+v emulated=%+v",
						si, m, ks.Stats(), ke.Stats())
				}
			}
		}
	}
}

// TestStatsAdd covers the aggregation helper the parallel path relies on.
func TestStatsAdd(t *testing.T) {
	a := Stats{Scored8: 3, Fallback16: 2, FallbackSW: 1}
	b := Stats{Scored8: 10, Fallback16: 20, FallbackSW: 30}
	got := a.Add(b)
	want := Stats{Scored8: 13, Fallback16: 22, FallbackSW: 31}
	if got != want {
		t.Fatalf("Stats.Add = %+v, want %+v", got, want)
	}
	if got.Total() != 66 {
		t.Fatalf("Total = %d, want 66", got.Total())
	}
}

// FuzzFarrarVsScalar fuzzes both kernel implementations against the
// scalar reference over fuzzer-chosen sequences and gap penalties. Wired
// into make fuzz-smoke.
func FuzzFarrarVsScalar(f *testing.F) {
	f.Add([]byte("ACDEFGHIKLMNPQRSTVWY"), []byte("ACDEFGHIKLMNPQRSTVWY"), uint8(10), uint8(2), uint8(0))
	f.Add([]byte("WWWWWWWW"), []byte("WWWW"), uint8(0), uint8(1), uint8(1))
	f.Add([]byte("A"), []byte("AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"), uint8(1), uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, qRaw, dRaw []byte, open, extend, sel uint8) {
		const canon = "ACDEFGHIKLMNPQRSTVWY"
		clamp := func(raw []byte, n int) []byte {
			if len(raw) > n {
				raw = raw[:n]
			}
			out := make([]byte, len(raw))
			for i, c := range raw {
				out[i] = canon[int(c)%len(canon)]
			}
			return out
		}
		q := clamp(qRaw, 200)
		d := clamp(dRaw, 400)
		if len(q) == 0 {
			return
		}
		matrices := []*score.Matrix{
			score.BLOSUM62,
			score.NewMatchMismatch(seq.Protein, 4, -10),
			score.NewMatchMismatch(seq.Protein, -1, -3),
			score.NewMatchMismatch(seq.Protein, 3, 1),
		}
		s := score.Scheme{
			Matrix: matrices[int(sel)%len(matrices)],
			Gap:    score.Gap{Open: int(open % 32), Extend: 1 + int(extend%15)},
		}
		want := sw.Score(q, d, s)
		ks, ke := kernelPair(t, q, s)
		checkDifferential(t, ks, ke, d, want)
		if ks.Stats() != ke.Stats() {
			t.Fatalf("tier stats diverged: swar=%+v emulated=%+v", ks.Stats(), ke.Stats())
		}
	})
}

// --- kernel micro-benchmarks (the bench-smoke job and the 5x gate) -----

func benchTarget() (q, d []byte) {
	rng := rand.New(rand.NewSource(99))
	return randProtein(rng, 128), randProtein(rng, 400)
}

// benchTier times one tier entry point of the kernel; the SWAR and
// emulated variants run side by side so a vanished speedup is visible.
func benchTier(b *testing.B, tier func(*Kernel, []byte) (int, bool)) {
	q, d := benchTarget()
	k, err := NewKernel(q, protScheme())
	if err != nil {
		b.Fatal(err)
	}
	tier(k, d) // build the tier's lazily built profile outside the timed loop
	cells := int64(len(q)) * int64(len(d))
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if _, ok := tier(k, d); !ok {
			b.Fatal("unexpected overflow")
		}
	}
	elapsed := time.Since(start)
	if elapsed > 0 {
		b.ReportMetric(float64(cells)*float64(b.N)/elapsed.Seconds()/1e6, "MCUPS")
	}
}

func BenchmarkScore8SWAR(b *testing.B)      { benchTier(b, (*Kernel).ScoreSWAR8) }
func BenchmarkScore8Emulated(b *testing.B)  { benchTier(b, (*Kernel).ScoreU8) }
func BenchmarkScore16SWAR(b *testing.B)     { benchTier(b, (*Kernel).ScoreSWAR16) }
func BenchmarkScore16Emulated(b *testing.B) { benchTier(b, (*Kernel).ScoreI16) }
