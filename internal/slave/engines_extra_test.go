package slave

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/score"
	"repro/internal/seq"
	"repro/internal/sw"
)

func TestMulticoreEngineMatchesFarrar(t *testing.T) {
	db := tinyDB(t)
	mc, err := NewMulticoreEngine("host0", score.DefaultProtein(), db, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if mc.Cores() != 3 {
		t.Errorf("Cores = %d", mc.Cores())
	}
	sse, _ := NewFarrarEngine("ref", score.DefaultProtein(), db, 0)
	q := dataset.Queries(db, 1, 70, 70, 21)[0]
	got, err := mc.Search(q, nil, make(chan struct{}))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := sse.Search(q, nil, make(chan struct{}))
	for i := range got {
		if got[i].Score != want[i].Score || got[i].SeqID != want[i].SeqID || got[i].Index != want[i].Index {
			t.Fatalf("hit %d: %+v vs %+v", i, got[i], want[i])
		}
	}
	if mc.Kind() != sse.Kind() || mc.DatabaseResidues() != sse.DatabaseResidues() {
		t.Error("metadata mismatch")
	}
}

func TestMulticoreEngineDefaultsCores(t *testing.T) {
	db := tinyDB(t)
	mc, err := NewMulticoreEngine("h", score.DefaultProtein(), db, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if mc.Cores() < 1 {
		t.Errorf("Cores = %d", mc.Cores())
	}
}

func TestMulticoreEngineCancel(t *testing.T) {
	db := tinyDB(t)
	mc, _ := NewMulticoreEngine("h", score.DefaultProtein(), db, 2, 0)
	cancel := make(chan struct{})
	close(cancel)
	q := dataset.Queries(db, 1, 40, 40, 22)[0]
	if _, err := mc.Search(q, nil, cancel); err != ErrCanceled {
		t.Errorf("err = %v", err)
	}
}

func TestExtraEngineValidation(t *testing.T) {
	if _, err := NewMulticoreEngine("h", score.Scheme{}, tinyDB(t), 2, 0); err == nil {
		t.Error("bad scheme accepted")
	}
	if _, err := NewMulticoreEngine("h", score.DefaultProtein(), nil, 2, 0); err == nil {
		t.Error("empty db accepted")
	}
}

func TestCoarseGrainedMatchesReference(t *testing.T) {
	// 60 sequences: three full chunks and a partial one.
	p := dataset.Profile{Name: "t", NumSeqs: 60, MeanLen: 70, SigmaLn: 0.5, MinLen: 10, MaxLen: 200}
	db := dataset.Generate(p, 3)
	q := dataset.Queries(db, 1, 80, 80, 4)[0]
	for _, workers := range []int{1, 3, 8} {
		got, _, err := multicoreScan(q.Residues, db, score.DefaultProtein(), workers)
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range db {
			if want := sw.Score(q.Residues, d.Residues, score.DefaultProtein()); got[i] != want {
				t.Fatalf("workers=%d seq %d: %d != %d", workers, i, got[i], want)
			}
		}
	}
}

func TestCoarseGrainedBadQuery(t *testing.T) {
	db := []*seq.Sequence{seq.New("a", "", []byte("ACD"))}
	if _, _, err := multicoreScan([]byte("AC1"), db, score.DefaultProtein(), 2); err == nil {
		t.Error("invalid query accepted")
	}
}

func TestCoarseGrainedStatsAggregation(t *testing.T) {
	// The fallback-telemetry regression: every worker owns a private
	// kernel whose tier counters vanish with it unless the scan sums them.
	// Every database sequence must be accounted for in exactly one tier,
	// regardless of worker count.
	p := dataset.Profile{Name: "t", NumSeqs: 40, MeanLen: 60, SigmaLn: 0.5, MinLen: 10, MaxLen: 150}
	db := dataset.Generate(p, 11)
	q := dataset.Queries(db, 1, 70, 70, 12)[0]
	for _, workers := range []int{1, 4, 9} {
		_, stats, err := multicoreScan(q.Residues, db, score.DefaultProtein(), workers)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := stats.Total(), int64(len(db)); got != want {
			t.Fatalf("workers=%d: stats account for %d sequences, want %d (%+v)", workers, got, want, stats)
		}
		if stats.Scored8 == 0 {
			t.Fatalf("workers=%d: expected some 8-bit resolutions, got %+v", workers, stats)
		}
	}
}
