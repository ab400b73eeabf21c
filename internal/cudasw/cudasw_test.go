package cudasw

import (
	"math/rand"
	"testing"

	"repro/internal/gcups"
	"repro/internal/score"
	"repro/internal/seq"
	"repro/internal/sw"
)

func randProtein(rng *rand.Rand, n int) []byte {
	const canon = "ACDEFGHIKLMNPQRSTVWY"
	out := make([]byte, n)
	for i := range out {
		out[i] = canon[rng.Intn(len(canon))]
	}
	return out
}

func randDB(rng *rand.Rand, n, maxLen int) []*seq.Sequence {
	db := make([]*seq.Sequence, n)
	for i := range db {
		db[i] = seq.New(string(rune('A'+i%26))+string(rune('0'+i%10)), "", randProtein(rng, 1+rng.Intn(maxLen)))
	}
	return db
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine(GTX580(), score.DefaultProtein(), nil); err == nil {
		t.Error("empty database accepted")
	}
	if _, err := NewEngine(GTX580(), score.Scheme{}, randDB(rand.New(rand.NewSource(1)), 3, 10)); err == nil {
		t.Error("invalid scheme accepted")
	}
}

func TestSearchScoresMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	db := randDB(rng, 40, 120)
	e, err := NewEngine(GTX580(), score.DefaultProtein(), db)
	if err != nil {
		t.Fatal(err)
	}
	q := randProtein(rng, 80)
	hits, rep, err := e.SearchRange(q, 0, len(db), true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != len(db) {
		t.Fatalf("%d hits for %d sequences", len(hits), len(db))
	}
	for i, h := range hits {
		if h.Index != i {
			t.Fatalf("hit %d has Index %d: order not restored", i, h.Index)
		}
		if h.ID != db[i].ID {
			t.Fatalf("hit %d ID %q != %q", i, h.ID, db[i].ID)
		}
		want := sw.Score(q, db[i].Residues, score.DefaultProtein())
		if h.Score != want {
			t.Fatalf("hit %d score %d, want %d", i, h.Score, want)
		}
	}
	if rep.Cells <= 0 || rep.Elapsed <= 0 {
		t.Errorf("report = %+v", rep)
	}
}

func TestSearchWithoutCompute(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := randDB(rng, 10, 50)
	e, _ := NewEngine(GTX580(), score.DefaultProtein(), db)
	hits, rep, err := e.SearchRange(randProtein(rng, 30), 0, len(db), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hits {
		if h.Score != 0 {
			t.Fatal("compute=false produced scores")
		}
	}
	if rep.Elapsed <= 0 || rep.Cells <= 0 {
		t.Errorf("cost model idle: %+v", rep)
	}
}

func TestCellsAccounting(t *testing.T) {
	db := []*seq.Sequence{
		seq.New("a", "", []byte("ACDEF")),      // 5
		seq.New("b", "", []byte("ACDEFGHIKL")), // 10
	}
	e, _ := NewEngine(GTX580(), score.DefaultProtein(), db)
	q := []byte("ACD")
	_, rep, _ := e.SearchRange(q, 0, len(db), false, nil)
	if want := int64(3 * 15); rep.Cells != want {
		t.Errorf("Cells = %d, want %d", rep.Cells, want)
	}
	// One warp, padded to the longest (10): 2 * 3 * 10 cells.
	if want := int64(2 * 3 * 10); rep.PaddedCells != want {
		t.Errorf("PaddedCells = %d, want %d", rep.PaddedCells, want)
	}
	if rep.InterTaskSeqs != 2 || rep.IntraTaskSeqs != 0 || rep.KernelLaunches != 1 {
		t.Errorf("kernel split = %+v", rep)
	}
}

func TestIntraTaskKernelSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	long := seq.New("long", "", randProtein(rng, interTaskMaxLen+100))
	db := append(randDB(rng, 5, 50), long)
	e, _ := NewEngine(GTX580(), score.DefaultProtein(), db)
	_, rep, _ := e.SearchRange(randProtein(rng, 20), 0, len(db), false, nil)
	if rep.IntraTaskSeqs != 1 || rep.InterTaskSeqs != 5 {
		t.Errorf("kernel split = %+v", rep)
	}
	if rep.KernelLaunches != 2 {
		t.Errorf("launches = %d, want 2 (one inter + one intra)", rep.KernelLaunches)
	}
}

func TestGCUPSGrowsWithDatabaseSize(t *testing.T) {
	// The Table IV effect: per-search overhead amortizes over bigger
	// databases, so simulated GCUPS must grow monotonically.
	rng := rand.New(rand.NewSource(5))
	q := randProtein(rng, 300)
	prev := 0.0
	for _, n := range []int{50, 500, 5000} {
		db := make([]*seq.Sequence, n)
		for i := range db {
			db[i] = seq.New("s", "", randProtein(rng, 200+rng.Intn(200)))
		}
		e, _ := NewEngine(GTX580(), score.DefaultProtein(), db)
		_, rep, _ := e.SearchRange(q, 0, len(db), false, nil)
		g := gcups.GCUPS(rep.Cells, rep.Elapsed)
		if g <= prev {
			t.Fatalf("GCUPS did not grow: %v after %v at n=%d", g, prev, n)
		}
		prev = g
	}
	// And it must stay below the device peak.
	if peak := GTX580().PeakCellsPerSecond() / 1e9; prev >= peak {
		t.Fatalf("GCUPS %v exceeds device peak %v", prev, peak)
	}
}

func TestPeakIsCalibratedNearCUDASW(t *testing.T) {
	// CUDASW++ 2.0 reports ~35 GCUPS peak on a GTX 580-class device.
	peak := GTX580().PeakCellsPerSecond() / 1e9
	if peak < 30 || peak > 40 {
		t.Errorf("GTX580 peak = %.1f GCUPS, want ~35", peak)
	}
}

func TestSearchEmptyQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	e, _ := NewEngine(GTX580(), score.DefaultProtein(), randDB(rng, 3, 20))
	if _, _, err := e.SearchRange(nil, 0, 3, true, nil); err == nil {
		t.Error("empty query accepted")
	}
}

func TestDatabaseAccessors(t *testing.T) {
	db := []*seq.Sequence{seq.New("a", "", []byte("ACD")), seq.New("b", "", []byte("AC"))}
	e, _ := NewEngine(GTX580(), score.DefaultProtein(), db)
	if e.DatabaseSeqs() != 2 || e.DatabaseResidues() != 5 {
		t.Errorf("accessors: %d seqs, %d residues", e.DatabaseSeqs(), e.DatabaseResidues())
	}
}

func TestMemoryChunkingCost(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	db := randDB(rng, 30, 100)
	var residues int64
	for _, d := range db {
		residues += int64(d.Len())
	}
	q := randProtein(rng, 50)

	fits := GTX580()
	fits.MemoryBytes = residues * 2
	eFits, _ := NewEngine(fits, score.DefaultProtein(), db)
	_, repFits, _ := eFits.SearchRange(q, 0, len(db), false, nil)

	tight := GTX580()
	tight.MemoryBytes = residues / 3 // forces ~3 chunks
	eTight, _ := NewEngine(tight, score.DefaultProtein(), db)
	_, repTight, _ := eTight.SearchRange(q, 0, len(db), false, nil)

	if repTight.Elapsed <= repFits.Elapsed {
		t.Errorf("chunked search not slower: %v vs %v", repTight.Elapsed, repFits.Elapsed)
	}
	// Scores/cells unchanged by chunking.
	if repTight.Cells != repFits.Cells {
		t.Errorf("cells differ: %d vs %d", repTight.Cells, repFits.Cells)
	}
}
