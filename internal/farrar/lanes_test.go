package farrar

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/score"
	"repro/internal/seq"
	"repro/internal/sw"
)

// lanePaths returns the lane kernels this host runs, keyed by name: the
// emulated oracle always, the AVX2 assembly where the probe found it.
func lanePaths() map[string]laneKernel {
	paths := map[string]laneKernel{"emulated": scoreLanesEmulated}
	if nativeLanes != nil {
		paths["avx2"] = nativeLanes
	}
	return paths
}

// skipWithoutLanes skips tb on a host that cannot run the lane assembly.
func skipWithoutLanes(tb testing.TB) {
	tb.Helper()
	if nativeLanes == nil {
		tb.Skip("host lacks AVX2: the lane kernel cannot run here")
	}
}

// laneRun runs kernel run over layout l for k's query, chunk columns per
// call, and returns what it harvested: the slots and the final maxima.
func laneRun(k *Kernel, l *laneLayout, run laneKernel, chunk int) (harvest []byte, vmax [laneCount]byte) {
	m := len(k.query)
	prof, he := make([]byte, laneCount*m), make([]byte, 2*laneCount*m)
	k.laneProfile(prof)
	harvest = make([]byte, l.slots*laneCount)
	gapOE, gapE := k.scheme.Gap.Open+k.scheme.Gap.Extend, k.scheme.Gap.Extend
	slots := 0
	for c := 0; c < len(l.cols); c += chunk * laneCount {
		e := min(c+chunk*laneCount, len(l.cols))
		slots += run(prof, l.cols[c:e], he, harvest[slots*laneCount:], &vmax, k.bias, gapOE, gapE)
	}
	if slots != l.slots {
		panic(fmt.Sprintf("kernel wrote %d harvest slots, layout has %d", slots, l.slots))
	}
	return harvest, vmax
}

// batchScores scores targets with a fresh copy of k through scoreBatch on
// lane kernel run, stepping every cells.
func batchScores(k *Kernel, targets [][]byte, run laneKernel, every int64) ([]int, Stats, PathCells) {
	c := *k
	c.buf, c.stats, c.cells = nil, Stats{}, PathCells{}
	scores := make([]int, len(targets))
	c.scoreBatch(targets, buildLanes(targets, k.scheme.Matrix.Alphabet()), scores, every, func(int64) bool { return true }, run)
	return scores, c.stats, c.cells
}

// checkLanes is the lane path's differential check for one query against
// one batch: the lane assembly, where the host runs it, must harvest the
// same bytes as the emulated oracle, in one call and in chunks of one
// and seven columns, and
// the batch path must land on sw.Score for every target with the tier
// Stats of the striped ladder.
func checkLanes(t *testing.T, k *Kernel, targets [][]byte) {
	t.Helper()
	if l := buildLanes(targets, k.scheme.Matrix.Alphabet()); l != nil && k.tier8 {
		wantH, wantV := laneRun(k, l, scoreLanesEmulated, len(l.cols))
		for path, run := range lanePaths() {
			if path == "emulated" {
				continue // the reference itself
			}
			for _, chunk := range []int{len(l.cols), 1, 7} {
				h, v := laneRun(k, l, run, chunk)
				if !bytes.Equal(h, wantH) || v != wantV {
					t.Fatalf("%s lanes (chunk %d) harvested differently from the emulated oracle\nq=%s", path, chunk, k.query)
				}
			}
		}
	}
	want := make([]int, len(targets))
	ref := *k
	ref.buf, ref.stats = nil, Stats{}
	for i, d := range targets {
		want[i] = sw.Score(k.query, d, k.scheme)
		if got := ref.Score(d); got != want[i] {
			t.Fatalf("striped ladder target %d: %d, reference %d", i, got, want[i])
		}
	}
	for path, run := range lanePaths() {
		for _, every := range []int64{1 << 22, 1} {
			got, st, _ := batchScores(k, targets, run, every)
			for i := range targets {
				if got[i] != want[i] {
					t.Fatalf("%s batch (every %d) target %d (%d aa): %d, reference %d\nq=%s\nd=%s",
						path, every, i, len(targets[i]), got[i], want[i], k.query, targets[i])
				}
			}
			if st != ref.stats {
				t.Fatalf("%s batch stats %+v, striped ladder %+v", path, st, ref.stats)
			}
		}
	}
}

// randBatch draws n targets of 0..maxLen residues, a tenth of them
// mutated copies of q so some lanes score high, with foreign bytes
// sprinkled in at rate foreign.
func randBatch(rng *rand.Rand, q []byte, n, maxLen int, foreign float64) [][]byte {
	bad := []byte{0, '\n', 'J', 'O', 'U', 'a', 'w', 0x7F, 0x80, 0xFF}
	out := make([][]byte, n)
	for i := range out {
		if rng.Intn(10) == 0 {
			out[i] = mutate(rng, q, 0.3)
		} else {
			out[i] = randProtein(rng, rng.Intn(maxLen+1))
		}
		for j := range out[i] {
			if rng.Float64() < foreign {
				out[i][j] = bad[rng.Intn(len(bad))]
			}
		}
	}
	return out
}

// TestLanesMatchScalar is the lane path's differential test: random
// batches × the differential schemes, with empty and one-residue targets,
// foreign bytes and length-1 queries.
func TestLanesMatchScalar(t *testing.T) {
	if nativeLanes == nil {
		t.Log("host lacks AVX2: the lane tests check the emulated oracle only")
	}
	rng := rand.New(rand.NewSource(0x1A4E))
	for si, s := range diffSchemes(t) {
		for iter := 0; iter < 6; iter++ {
			q := randProtein(rng, 1+rng.Intn(80))
			if iter == 0 {
				q = q[:1]
			}
			k, _ := kernelPair(t, q, s)
			targets := randBatch(rng, q, 1+rng.Intn(90), 160, 0.05)
			targets = append(targets, nil, randProtein(rng, 1))
			t.Run(fmt.Sprintf("scheme%d/%d", si, iter), func(t *testing.T) { checkLanes(t, k, targets) })
		}
	}
}

// TestLanesRefillBoundaries packs many very short targets, so most columns
// start a sequence in some lane and many lanes refill on the same column,
// plus one long target that leaves the others to go idle early.
func TestLanesRefillBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(0x4EF1))
	q := randProtein(rng, 37)
	k, _ := kernelPair(t, q, protScheme())
	var targets [][]byte
	for i := 0; i < 2000; i++ {
		targets = append(targets, randProtein(rng, 1+rng.Intn(4)))
	}
	targets = append(targets, mutate(rng, q, 0.1), randProtein(rng, 400))
	l := buildLanes(targets, k.scheme.Matrix.Alphabet())
	if l.slots < 100 {
		t.Fatalf("layout has %d harvest slots; the test wants many refill columns", l.slots)
	}
	checkLanes(t, k, targets)
}

// TestLanesLengthThresholds pins the two path cut-offs: targets of
// laneMaxTarget residues take the lanes and one more takes the striped
// kernel, and a query of laneMaxQuery residues sends everything striped
// while one residue fewer keeps the lanes.
func TestLanesLengthThresholds(t *testing.T) {
	rng := rand.New(rand.NewSource(0x7B))
	targets := [][]byte{
		randProtein(rng, laneMaxTarget-1),
		randProtein(rng, laneMaxTarget),
		randProtein(rng, laneMaxTarget+1),
		randProtein(rng, 50),
	}
	// The cell split needs a lane kernel but not the oracle's slowness.
	run := lanePaths()["avx2"]
	if run == nil {
		run = scoreLanesEmulated
	}
	for _, m := range []int{1, laneMaxQuery - 1, laneMaxQuery, laneMaxQuery + 1} {
		q := randProtein(rng, m)
		targets[3] = mutate(rng, q[:min(m, 40)], 0.2)
		k, _ := kernelPair(t, q, protScheme())
		_, _, cells := batchScores(k, targets, run, 1<<22)
		var wantTotal int64
		for _, d := range targets {
			wantTotal += int64(m) * int64(len(d))
		}
		wantStriped := int64(m) * int64(laneMaxTarget+1)
		if m >= laneMaxQuery {
			wantStriped = wantTotal
		}
		if cells.Striped != wantStriped || cells.Total() != wantTotal {
			t.Fatalf("m=%d: cells %+v, want %d striped of %d", m, cells, wantStriped, wantTotal)
		}
	}
	checkLanes(t, k1(t, rng), targets)
}

// k1 is a kernel for a random one-residue query.
func k1(t *testing.T, rng *rand.Rand) *Kernel {
	k, _ := kernelPair(t, randProtein(rng, 1), protScheme())
	return k
}

// TestLanesAtCeiling drives lanes to the 8-bit ceiling: with match +1 /
// mismatch -1 (bias 1, ceiling8 126) a run of L alanines scores L against
// a longer alanine query, so 125 resolves in a lane and 126 and up
// escalate to 16 bits, side by side with lanes that stay low.
func TestLanesAtCeiling(t *testing.T) {
	s := score.Scheme{Matrix: score.NewMatchMismatch(seq.Protein, 1, -1), Gap: score.AffineGap(10, 2)}
	q := bytes.Repeat([]byte("A"), 140)
	k, _ := kernelPair(t, q, s)
	var targets [][]byte
	for _, n := range []int{124, 125, 126, 127, 128, 3, 60} {
		targets = append(targets, bytes.Repeat([]byte("A"), n), []byte("CDE"))
	}
	checkLanes(t, k, targets)
	_, st, _ := batchScores(k, targets, scoreLanesEmulated, 1<<22)
	if want := (Stats{Scored8: 11, Fallback16: 3}); st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
}

// TestLanesCancel pins that a step returning false stops the batch
// within one chunk: no further step, and the lane cells already done are
// at most one chunk past the cells at which it was told to stop.
func TestLanesCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(0xCA))
	q := randProtein(rng, 20)
	k, _ := kernelPair(t, q, protScheme())
	targets := randBatch(rng, q, 200, 300, 0)
	targets = append(targets, randProtein(rng, laneMaxTarget+200))
	const every = 20 * laneCount * 20 // 20 columns
	for path, run := range lanePaths() {
		calls := 0
		c := *k
		ok := c.scoreBatch(targets, buildLanes(targets, c.scheme.Matrix.Alphabet()), make([]int, len(targets)), every,
			func(int64) bool { calls++; return calls < 3 }, run)
		if ok || calls != 3 {
			t.Fatalf("%s: scoreBatch returned %v after %d steps, want false after 3", path, ok, calls)
		}
	}
}

// FuzzLanesVsScalar fuzzes the lane path: a fuzzer-chosen query, a batch
// cut from the fuzzer's bytes (lengths 0 up to the target threshold and
// one past it, foreign bytes kept), a scheme and gap penalties, through
// checkLanes. Wired into make fuzz-smoke.
func FuzzLanesVsScalar(f *testing.F) {
	f.Add([]byte("ACDEFGHIKLMNPQRSTVWY"), []byte("ACDEF,GHIK,,LMNPQRSTVWYACD,W"), uint8(10), uint8(2), uint8(0))
	f.Add([]byte("A"), []byte("A,AA,AAAA,AAAAAAAA,xyz\x80"), uint8(1), uint8(1), uint8(1))
	f.Add([]byte("WWWWWWWW"), []byte("WWWW,WW,WWWWWWWWW,CCC"), uint8(0), uint8(1), uint8(0x12))
	f.Add([]byte("MKVLAG"), []byte("ACDEFGHIKL,MKV,Q"), uint8(10), uint8(2), uint8(0xC0))
	f.Add([]byte("MKVLAG"), []byte("MKVLAGW,P"), uint8(3), uint8(1), uint8(0xE1))
	f.Fuzz(func(t *testing.T, qRaw, dRaw []byte, open, extend, sel uint8) {
		const canon = "ACDEFGHIKLMNPQRSTVWY"
		if len(qRaw) == 0 {
			return
		}
		targets := bytes.Split(dRaw, []byte(","))
		if len(targets) > 70 {
			targets = targets[:70]
		}
		// The top bits of sel add a target one residue below, at or above
		// the length threshold, against a short query so the oracle's
		// 1500 columns stay quick.
		mq := 96
		if n := int(sel >> 5); n >= 5 && len(targets[0]) > 0 {
			long := bytes.Repeat(targets[0], laneMaxTarget/len(targets[0])+2)
			targets = append(targets, long[:laneMaxTarget-6+n])
			mq = 16
		}
		q := make([]byte, min(len(qRaw), mq))
		for i := range q {
			q[i] = canon[int(qRaw[i])%len(canon)]
		}
		matrices := []*score.Matrix{
			score.BLOSUM62,
			score.NewMatchMismatch(seq.Protein, 4, -10),
			score.NewMatchMismatch(seq.Protein, -1, -3),
			score.NewMatchMismatch(seq.Protein, 3, 1),
		}
		s := score.Scheme{
			Matrix: matrices[int(sel&0x1F)%len(matrices)],
			Gap:    score.Gap{Open: int(open % 32), Extend: 1 + int(extend%15)},
		}
		k, _ := kernelPair(t, q, s)
		checkLanes(t, k, targets)
	})
}
