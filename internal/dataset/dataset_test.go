package dataset

import (
	"math"
	"testing"

	"repro/internal/seq"
)

func TestTableIICounts(t *testing.T) {
	want := map[string]int{
		"Ensembl Dog Proteins":  25160,
		"Ensembl Rat Proteins":  32971,
		"RefSeq Human Proteins": 34705,
		"RefSeq Mouse Proteins": 29437,
		"UniProtKB/SwissProt":   537505,
	}
	profiles := TableII()
	if len(profiles) != 5 {
		t.Fatalf("TableII has %d profiles", len(profiles))
	}
	for _, p := range profiles {
		if want[p.Name] != p.NumSeqs {
			t.Errorf("%s: NumSeqs = %d, want %d", p.Name, p.NumSeqs, want[p.Name])
		}
	}
}

func TestProfileByName(t *testing.T) {
	p, err := ProfileByName("UniProtKB/SwissProt")
	if err != nil || p.NumSeqs != 537505 {
		t.Errorf("ProfileByName = %+v, %v", p, err)
	}
	if _, err := ProfileByName("nope"); err == nil {
		t.Error("unknown profile accepted")
	}
}

func TestScale(t *testing.T) {
	p, _ := ProfileByName("UniProtKB/SwissProt")
	s := p.Scale(0.001)
	if s.NumSeqs != 538 {
		t.Errorf("scaled NumSeqs = %d, want 538", s.NumSeqs)
	}
	if tiny := p.Scale(1e-9); tiny.NumSeqs != 1 {
		t.Errorf("tiny scale NumSeqs = %d, want 1", tiny.NumSeqs)
	}
}

func TestGenerateDeterministicAndValid(t *testing.T) {
	p := Profile{Name: "test", NumSeqs: 200, MeanLen: 300, SigmaLn: 0.7, MinLen: 20, MaxLen: 3000}
	a := Generate(p, 7)
	b := Generate(p, 7)
	if len(a) != 200 {
		t.Fatalf("generated %d sequences", len(a))
	}
	for i := range a {
		if a[i].ID != b[i].ID || string(a[i].Residues) != string(b[i].Residues) {
			t.Fatal("generation is not deterministic")
		}
		if err := seq.Protein.Validate(a[i].Residues); err != nil {
			t.Fatalf("sequence %d invalid: %v", i, err)
		}
		if a[i].Len() < p.MinLen || a[i].Len() > p.MaxLen {
			t.Fatalf("sequence %d length %d outside [%d,%d]", i, a[i].Len(), p.MinLen, p.MaxLen)
		}
	}
	c := Generate(p, 8)
	if string(a[0].Residues) == string(c[0].Residues) {
		t.Error("different seeds produced identical data")
	}
}

func TestGenerateMeanLength(t *testing.T) {
	p := Profile{Name: "test", NumSeqs: 3000, MeanLen: 355, SigmaLn: 0.7, MinLen: 10, MaxLen: 36000}
	db := Generate(p, 3)
	var total int64
	for _, s := range db {
		total += int64(s.Len())
	}
	mean := float64(total) / float64(len(db))
	if mean < 0.85*p.MeanLen || mean > 1.15*p.MeanLen {
		t.Errorf("empirical mean length %.1f, want ~%.0f", mean, p.MeanLen)
	}
}

func TestResidues(t *testing.T) {
	p := Profile{NumSeqs: 1000, MeanLen: 355}
	if got := p.Residues(); got != 355000 {
		t.Errorf("Residues = %d", got)
	}
}

func TestQueryLengths(t *testing.T) {
	ls := QueryLengths(40, 100, 5000)
	if len(ls) != 40 || ls[0] != 100 || ls[39] != 5000 {
		t.Fatalf("QueryLengths ends = %d..%d", ls[0], ls[39])
	}
	for i := 1; i < len(ls); i++ {
		if ls[i] <= ls[i-1] {
			t.Fatalf("lengths not increasing at %d", i)
		}
		step := ls[i] - ls[i-1]
		if math.Abs(float64(step)-4900.0/39) > 1 {
			t.Fatalf("step %d not equally distributed", step)
		}
	}
	if got := QueryLengths(1, 100, 5000); len(got) != 1 || got[0] != 100 {
		t.Errorf("single length = %v", got)
	}
	if QueryLengths(0, 1, 2) != nil {
		t.Error("zero queries should be nil")
	}
}

func TestQueriesFromDatabase(t *testing.T) {
	p := Profile{Name: "test", NumSeqs: 50, MeanLen: 200, SigmaLn: 0.6, MinLen: 50, MaxLen: 1000}
	db := Generate(p, 11)
	qs := Queries(db, 40, 100, 5000, 12)
	if len(qs) != 40 {
		t.Fatalf("%d queries", len(qs))
	}
	lengths := QueryLengths(40, 100, 5000)
	for i, q := range qs {
		if q.Len() != lengths[i] {
			t.Errorf("query %d length %d, want %d", i, q.Len(), lengths[i])
		}
		if err := seq.Protein.Validate(q.Residues); err != nil {
			t.Errorf("query %d invalid: %v", i, err)
		}
	}
	// Determinism.
	qs2 := Queries(db, 40, 100, 5000, 12)
	if string(qs[7].Residues) != string(qs2[7].Residues) {
		t.Error("queries not deterministic")
	}
}

func TestQueriesWithoutDatabase(t *testing.T) {
	qs := Queries(nil, 3, 100, 300, 5)
	if len(qs) != 3 || qs[0].Len() != 100 || qs[2].Len() != 300 {
		t.Fatalf("queries = %v", qs)
	}
}

func TestTableIIWorkloadMagnitude(t *testing.T) {
	// Sanity anchor: 40 queries averaging ~2550 aa against SwissProt
	// (~191M residues) is ~1.9e13 cells; at the paper's 7,190 s on one
	// SSE core that implies ~2.7 GCUPS, a plausible Farrar figure.
	p, _ := ProfileByName("UniProtKB/SwissProt")
	cells := int64(40*2550) * p.Residues()
	if cells < 1.5e13 || cells > 2.5e13 {
		t.Errorf("SwissProt workload = %g cells, outside expected band", float64(cells))
	}
}
