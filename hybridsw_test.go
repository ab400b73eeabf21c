package hybridsw_test

import (
	"strings"
	"testing"

	hybridsw "repro"
)

func TestGenerateDatabaseAndQueries(t *testing.T) {
	db, err := hybridsw.GenerateDatabase("Ensembl Dog Proteins", 0.001, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(db) != 25 {
		t.Fatalf("scaled Dog database has %d sequences, want 25", len(db))
	}
	qs := hybridsw.GenerateQueries(db, 3, 50, 150, 2)
	if len(qs) != 3 || qs[0].Len() != 50 || qs[2].Len() != 150 {
		t.Fatalf("queries = %v", qs)
	}
	if _, err := hybridsw.GenerateDatabase("nope", 1, 1); err == nil {
		t.Error("unknown database accepted")
	}
}

func TestScoreAndAlign(t *testing.T) {
	s := hybridsw.DefaultScheme()
	q := []byte("MKVLATGFFDE")
	if got := hybridsw.Score(q, q, s); got <= 0 {
		t.Fatalf("self score = %d", got)
	}
	a := hybridsw.Align(q, []byte("MKVLAGFFDE"), s)
	if a.Score <= 0 || len(a.QueryRow) == 0 {
		t.Fatalf("alignment = %+v", a)
	}
}

func TestSearchEndToEnd(t *testing.T) {
	db, err := hybridsw.GenerateDatabase("Ensembl Dog Proteins", 0.0008, 3)
	if err != nil {
		t.Fatal(err)
	}
	queries := hybridsw.GenerateQueries(db, 4, 40, 120, 4)
	rep, err := hybridsw.Search(queries, db, hybridsw.Platform{
		GPUs: 1, SSECores: 2, Policy: "PSS", Adjust: true, TopK: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PerQuery) != 4 {
		t.Fatalf("%d results", len(rep.PerQuery))
	}
	for _, r := range rep.PerQuery {
		if len(r.Hits) != 3 {
			t.Fatalf("query %s: %d hits, want TopK=3", r.Query, len(r.Hits))
		}
		for i := 1; i < len(r.Hits); i++ {
			if r.Hits[i].Score > r.Hits[i-1].Score {
				t.Fatal("hits not sorted best-first")
			}
		}
		// Queries are stitched from database fragments, so real homology
		// must surface as a clearly positive top score.
		if r.Hits[0].Score < 20 {
			t.Errorf("query %s: top score %d suspiciously low", r.Query, r.Hits[0].Score)
		}
	}
	if rep.Cells <= 0 || rep.GCUPS() <= 0 {
		t.Errorf("report metrics: %+v", rep)
	}
}

func TestSearchDefaults(t *testing.T) {
	db, _ := hybridsw.GenerateDatabase("Ensembl Dog Proteins", 0.0004, 5)
	queries := hybridsw.GenerateQueries(db, 1, 60, 60, 6)
	rep, err := hybridsw.Search(queries, db, hybridsw.Platform{}) // all defaults
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PerQuery) != 1 || len(rep.PerQuery[0].Hits) != len(db) {
		t.Fatalf("defaults: %+v", rep.PerQuery)
	}
}

func TestSearchBadPolicy(t *testing.T) {
	db, _ := hybridsw.GenerateDatabase("Ensembl Dog Proteins", 0.0004, 5)
	queries := hybridsw.GenerateQueries(db, 1, 60, 60, 6)
	if _, err := hybridsw.Search(queries, db, hybridsw.Platform{Policy: "bogus"}); err == nil {
		t.Error("bad policy accepted")
	}
}

func TestSimulate(t *testing.T) {
	res, err := hybridsw.Simulate("UniProtKB/SwissProt", 4, 4, "PSS", true, 1)
	if err != nil {
		t.Fatal(err)
	}
	secs := res.Makespan.Seconds()
	if secs < 90 || secs > 200 {
		t.Errorf("simulated 4G+4S SwissProt = %.0f s, want the paper's ballpark (~112)", secs)
	}
	if _, err := hybridsw.Simulate("nope", 1, 1, "PSS", true, 1); err == nil {
		t.Error("unknown database accepted")
	}
	if _, err := hybridsw.Simulate("UniProtKB/SwissProt", 1, 1, "bogus", true, 1); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestPackagePathIsTidy(t *testing.T) {
	// Guard against accidentally leaking internal types in exported API
	// signatures beyond the documented aliases: the aliases must resolve.
	var _ = hybridsw.Sequence{}
	var _ = hybridsw.Scheme{}
	var _ = hybridsw.Hit{}
	if !strings.Contains("hybridsw", "sw") {
		t.Skip()
	}
}

func TestHitEValue(t *testing.T) {
	e1, exact := hybridsw.HitEValue(hybridsw.DefaultScheme(), 300, 250, 190_000_000)
	if !exact {
		t.Error("paper default scheme should have exact statistics")
	}
	e2, _ := hybridsw.HitEValue(hybridsw.DefaultScheme(), 50, 250, 190_000_000)
	if e1 >= e2 {
		t.Errorf("E-values not ordered: %g vs %g", e1, e2)
	}
	if e1 > 1e-6 {
		t.Errorf("strong hit E = %g, want tiny", e1)
	}
}

func TestSearchAlignBest(t *testing.T) {
	db, _ := hybridsw.GenerateDatabase("Ensembl Dog Proteins", 0.0006, 15)
	queries := hybridsw.GenerateQueries(db, 2, 60, 120, 16)
	rep, err := hybridsw.Search(queries, db, hybridsw.Platform{
		SSECores: 1, TopK: 3, AlignBest: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := hybridsw.DefaultScheme()
	for qi, r := range rep.PerQuery {
		best, a := r.Hits[0], r.Alignment
		if a == nil || len(a.QueryRow) == 0 || len(a.QueryRow) != len(a.TargetRow) {
			t.Fatalf("query %s: no alignment rows for the best hit", r.Query)
		}
		// The alignment must rescore to the reported score.
		re, err := a.Rescore(s)
		if err != nil {
			t.Fatal(err)
		}
		if re != best.Score || a.Score != best.Score {
			t.Fatalf("query %s: alignment scores %d and rescores to %d, hit score %d", r.Query, a.Score, re, best.Score)
		}
		// Coordinates must reference the query and the best hit's target.
		q, target := queries[qi], db[best.Index]
		if strings.ReplaceAll(string(a.QueryRow), "-", "") != string(q.Residues[a.QueryStart:a.QueryEnd]) {
			t.Fatalf("query %s: query coords inconsistent", r.Query)
		}
		if strings.ReplaceAll(string(a.TargetRow), "-", "") != string(target.Residues[a.TargetStart:a.TargetEnd]) {
			t.Fatalf("query %s: target coords inconsistent with best hit %s", r.Query, best.SeqID)
		}
	}
}

func TestSearchFilteredMode(t *testing.T) {
	db, err := hybridsw.GenerateDatabase("Ensembl Dog Proteins", 0.0008, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Queries drawn from database content: the prefilter's exact k-mer seeds
	// hit their source sequences, so each query's true best score survives.
	queries := hybridsw.GenerateQueries(db, 3, 40, 100, 8)
	full, err := hybridsw.Search(queries, db, hybridsw.Platform{SSECores: 2})
	if err != nil {
		t.Fatal(err)
	}
	filt, err := hybridsw.Search(queries, db, hybridsw.Platform{
		SSECores: 2, Mode: "filtered", GPUs: 1, // the GPU filters too
	})
	if err != nil {
		t.Fatal(err)
	}
	if filt.Filter == nil {
		t.Fatal("filtered report has no Filter stats")
	}
	if full.Filter != nil {
		t.Fatal("full-scan report has Filter stats")
	}
	if filt.Filter.RescoredCells >= filt.Filter.FullScanCells {
		t.Fatalf("rescored %d >= full %d", filt.Filter.RescoredCells, filt.Filter.FullScanCells)
	}
	if filt.Cells != filt.Filter.RescoredCells {
		t.Fatalf("Cells %d != RescoredCells %d", filt.Cells, filt.Filter.RescoredCells)
	}
	for i := range full.PerQuery {
		fq, gq := full.PerQuery[i], filt.PerQuery[i]
		if fq.Query != gq.Query {
			t.Fatalf("query order: %s vs %s", fq.Query, gq.Query)
		}
		// The query's source sequence scores identically; every hit is
		// bounded by the full scan's.
		if gq.Hits[0].Score != fq.Hits[0].Score {
			t.Errorf("query %s: filtered best %d, full best %d", fq.Query, gq.Hits[0].Score, fq.Hits[0].Score)
		}
		for j := range gq.Hits {
			if gq.Hits[j].Score > fq.Hits[j].Score {
				t.Errorf("query %s hit %d: filtered %d exceeds full %d", fq.Query, j, gq.Hits[j].Score, fq.Hits[j].Score)
			}
		}
	}
}

func TestSearchFilteredValidation(t *testing.T) {
	db, _ := hybridsw.GenerateDatabase("Ensembl Dog Proteins", 0.0005, 9)
	queries := hybridsw.GenerateQueries(db, 1, 40, 40, 10)
	if rep, err := hybridsw.Search(queries, db, hybridsw.Platform{GPUs: 1, Mode: "filtered"}); err != nil {
		t.Errorf("filtered mode with only GPUs: %v", err)
	} else if rep.Filter == nil || len(rep.PerQuery) != 1 || len(rep.PerQuery[0].Hits) == 0 {
		t.Errorf("filtered search on a GPU-only platform reported %+v", rep)
	}
	if _, err := hybridsw.Search(queries, db, hybridsw.Platform{SSECores: 1, Mode: "sideways"}); err == nil {
		t.Error("unknown mode accepted")
	} else if !strings.Contains(err.Error(), "unknown mode") {
		t.Errorf("error %v", err)
	}
}
