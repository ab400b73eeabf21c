package prefilter

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/metrics"
	"repro/internal/score"
	"repro/internal/seq"
	"repro/internal/sw"
)

const protein = "ACDEFGHIKLMNPQRSTVWY"

func randomResidues(rng *rand.Rand, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = protein[rng.Intn(len(protein))]
	}
	return out
}

// plantDB builds a random database and embeds the query verbatim into the
// chosen sequences, returning the database.
func plantDB(rng *rand.Rand, nseqs, seqLen int, query []byte, into []int) []*seq.Sequence {
	db := make([]*seq.Sequence, nseqs)
	planted := map[int]bool{}
	for _, i := range into {
		planted[i] = true
	}
	for i := range db {
		res := randomResidues(rng, seqLen)
		if planted[i] {
			at := rng.Intn(seqLen - len(query))
			copy(res[at:], query)
		}
		db[i] = seq.New("s"+string(rune('A'+i)), "", res)
	}
	return db
}

func TestRunFindsPlantedQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	query := randomResidues(rng, 40)
	db := plantDB(rng, 8, 400, query, []int{2, 5})
	res, err := Run(query, db, Spec{})
	if err != nil {
		t.Fatal(err)
	}
	covered := map[int]bool{}
	for _, w := range res.Windows {
		covered[w.Seq] = true
		if w.Start < 0 || w.End > db[w.Seq].Len() || w.Start >= w.End {
			t.Fatalf("invalid window %+v for sequence of length %d", w, db[w.Seq].Len())
		}
	}
	if !covered[2] || !covered[5] {
		t.Fatalf("planted sequences not covered; windows %v", res.Windows)
	}
	if res.Stats.SeedHits == 0 || res.Stats.Windows == 0 || res.Stats.Patterns == 0 {
		t.Fatalf("stats not accounted: %+v", res.Stats)
	}
	if res.Stats.ResiduesScanned != res.Stats.TotalResidues || res.Stats.TotalResidues != 8*400 {
		t.Fatalf("residue accounting wrong: %+v", res.Stats)
	}
	if sel := res.Stats.Selectivity(); sel <= 0 || sel >= 1 {
		t.Fatalf("selectivity %v not in (0,1) on a selective query", sel)
	}
}

// TestHugeMarginAdmitsWholeSequences: a margin near math.MaxInt used to
// overflow the window arithmetic and drop every window. A margin at least
// as long as the sequences admits each seeded sequence whole, so every
// larger one must give the same result.
func TestHugeMarginAdmitsWholeSequences(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	query := randomResidues(rng, 40)
	db := plantDB(rng, 8, 400, query, []int{2, 5})
	want, err := Run(query, db, Spec{Margin: 400})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Windows) == 0 {
		t.Fatal("setup: no windows at margin 400")
	}
	for _, margin := range []int{math.MaxInt32, math.MaxInt - 1, math.MaxInt} {
		got, err := Run(query, db, Spec{Margin: margin})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("margin %d: %d windows %+v, want %d windows %+v", margin, len(got.Windows), got.Stats, len(want.Windows), want.Stats)
		}
	}
}

// TestFilteredRankingMatchesFullScan is the package-level form of the
// acceptance criterion: when the prefilter admits every hit's alignment
// window, rescored per-sequence scores are identical to the full scan's.
func TestFilteredRankingMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	scheme := score.DefaultProtein()
	query := randomResidues(rng, 48)
	db := plantDB(rng, 12, 600, query, []int{0, 4, 9})
	res, err := Run(query, db, Spec{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRescorer(query, scheme)
	if err != nil {
		t.Fatal(err)
	}
	filtered, cells, err := r.Rescore(db, res.Windows)
	if err != nil {
		t.Fatal(err)
	}
	var fullCells int64
	for i, d := range db {
		full := sw.Score(query, d.Residues, scheme)
		fullCells += sw.Cells(len(query), d.Len())
		// Planted sequences must agree exactly; unplanted sequences may
		// score lower under the filter (their weak best alignment can fall
		// outside every window), which reorders nothing above the noise.
		if planted := i == 0 || i == 4 || i == 9; planted && filtered[i] != full {
			t.Fatalf("sequence %d: filtered score %d != full %d", i, filtered[i], full)
		} else if filtered[i] > full {
			t.Fatalf("sequence %d: filtered score %d exceeds full-scan %d", i, filtered[i], full)
		}
	}
	if cells <= 0 || cells >= fullCells {
		t.Fatalf("rescored cells %d not strictly below full-scan cells %d", cells, fullCells)
	}
	var windowCells int64
	for _, w := range res.Windows {
		windowCells += int64(len(query)) * int64(w.End-w.Start)
	}
	if windowCells != cells {
		t.Fatalf("windows hold %d cells, Rescore computed %d", windowCells, cells)
	}
}

func TestMergeWindows(t *testing.T) {
	in := []Window{{Seq: 0, Start: 50, End: 90}, {Seq: 0, Start: 10, End: 40}, {Seq: 0, Start: 30, End: 60}, {Seq: 0, Start: 90, End: 95}}
	got := mergeWindows(in)
	want := []Window{{Seq: 0, Start: 10, End: 95}}
	if len(got) != 1 || got[0] != want[0] {
		t.Fatalf("mergeWindows = %v, want %v", got, want)
	}
	disjoint := []Window{{Seq: 0, Start: 0, End: 5}, {Seq: 0, Start: 6, End: 9}}
	if got := mergeWindows(disjoint); len(got) != 2 {
		t.Fatalf("disjoint windows merged: %v", got)
	}
}

func TestShortQueryClampsK(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	query := []byte("WWW") // shorter than DefaultK
	db := plantDB(rng, 3, 100, query, []int{1})
	res, err := Run(query, db, Spec{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, w := range res.Windows {
		if w.Seq == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("3-residue query missed its planted copy; windows %v", res.Windows)
	}
	if _, err := Run(nil, db, Spec{}); err != nil {
		t.Fatalf("empty query errored: %v", err)
	}
}

func TestSeedStrideHonorsMaxPatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	query := randomResidues(rng, 5000)
	spec := Spec{MaxPatterns: 64}.Normalize()
	seeds, offs := compileSeeds(query, spec)
	if seeds.patterns() > 64 {
		t.Fatalf("%d patterns exceed cap 64", seeds.patterns())
	}
	if seeds.patterns() == 0 || len(offs) != seeds.patterns() {
		t.Fatalf("%d patterns compiled with %d offset lists", seeds.patterns(), len(offs))
	}
	total := 0
	for i, po := range offs {
		total += len(po)
		for _, off := range po {
			kmer := string(query[off : int(off)+spec.K])
			if seeds.index[kmer] != int32(i) {
				t.Fatalf("offset %d holds %q, which is pattern %d, not %d", off, kmer, seeds.index[kmer], i)
			}
		}
	}
	if total > 64 {
		t.Fatalf("%d seed instances exceed cap", total)
	}
}

func TestValidateWindows(t *testing.T) {
	db := []*seq.Sequence{seq.New("a", "", []byte("ACGTACGT"))}
	bad := [][]Window{
		{{Seq: 1, Start: 0, End: 4}},
		{{Seq: -1, Start: 0, End: 4}},
		{{Seq: 0, Start: -1, End: 4}},
		{{Seq: 0, Start: 0, End: 9}},
		{{Seq: 0, Start: 4, End: 4}},
	}
	for i, ws := range bad {
		if err := ValidateWindows(ws, db); err == nil {
			t.Fatalf("case %d: invalid window %v accepted", i, ws[0])
		}
	}
	if err := ValidateWindows([]Window{{Seq: 0, Start: 0, End: 8}}, db); err != nil {
		t.Fatalf("valid window rejected: %v", err)
	}
}

func TestSpecNormalize(t *testing.T) {
	n := Spec{}.Normalize()
	if n.K != DefaultK || n.Margin != DefaultMargin || n.MaxPatterns != DefaultMaxPatterns || n.Step != 1 {
		t.Fatalf("zero Spec normalized to %+v", n)
	}
	if m := (Spec{Margin: -1}).Normalize().Margin; m != 0 {
		t.Fatalf("negative margin normalized to %d, want 0", m)
	}
	if m := (Spec{Margin: 7}).Normalize().Margin; m != 7 {
		t.Fatalf("explicit margin normalized to %d, want 7", m)
	}
}

func TestMetricsObserve(t *testing.T) {
	reg := metrics.NewRegistry()
	m := NewMetrics(reg)
	m.Observe(Stats{Patterns: 3, ResiduesScanned: 100, Windows: 2, CandidateResidues: 25, TotalResidues: 100})
	if got := m.PatternsCompiled.Value(); got != 3 {
		t.Fatalf("patterns counter = %v", got)
	}
	if got := m.Selectivity.Count(); got != 1 {
		t.Fatalf("selectivity observations = %d", got)
	}
	m.ObserveSaved(1000, 100)
	m.ObserveSaved(100, 1000) // clamped, must not panic or go negative
	if got := m.RescoreCellsSaved.Value(); got != 900 {
		t.Fatalf("cells saved = %v, want 900", got)
	}
	// The uninstrumented bundle: every observation is a no-op.
	none := NewMetrics(nil)
	none.Observe(Stats{Patterns: 1, ResiduesScanned: 1, Windows: 1})
	none.ObserveSaved(10, 1)
}

// FuzzPrefilterRangeCut pins what lets a filtered range task work alone:
// scanning each range db[lo:hi) of a cut and shifting its windows up by lo
// yields exactly the whole database's windows, in order, and the ranges'
// counts add up to the whole scan's.
func FuzzPrefilterRangeCut(f *testing.F) {
	f.Add(int64(1), uint8(30), uint8(6), uint8(3), uint8(4), int8(0), uint8(2))
	f.Add(int64(7), uint8(3), uint8(12), uint8(1), uint8(1), int8(-1), uint8(0))
	f.Add(int64(42), uint8(90), uint8(2), uint8(5), uint8(8), int8(9), uint8(50))
	f.Fuzz(func(t *testing.T, seed int64, qlen, nseqs, k, step uint8, margin int8, cuts uint8) {
		rng := rand.New(rand.NewSource(seed))
		// A 4-letter alphabet makes seed hits, overlaps and merges common.
		const alpha = "ACDE"
		gen := func(n int) []byte {
			out := make([]byte, n)
			for i := range out {
				out[i] = alpha[rng.Intn(len(alpha))]
			}
			return out
		}
		query := gen(int(qlen) % 64)
		db := make([]*seq.Sequence, 1+int(nseqs)%16)
		for i := range db {
			db[i] = seq.New("s", "", gen(rng.Intn(120)))
		}
		spec := Spec{K: int(k) % 8, Step: int(step) % 4, Margin: int(margin)}
		whole, err := Run(query, db, spec)
		if err != nil {
			t.Fatal(err)
		}
		filter, err := NewFilter(query, spec)
		if err != nil {
			t.Fatal(err)
		}
		// A random cut: every boundary in (0, len(db)) is kept or not.
		bounds := []int{0}
		for i := 1; i < len(db); i++ {
			if rng.Intn(256) < int(cuts) {
				bounds = append(bounds, i)
			}
		}
		bounds = append(bounds, len(db))
		var windows []Window
		var sum Stats
		for i := 0; i+1 < len(bounds); i++ {
			lo, hi := bounds[i], bounds[i+1]
			part := filter.Scan(db[lo:hi])
			if part.Stats.Patterns != whole.Stats.Patterns {
				t.Fatalf("range [%d,%d) compiled %d patterns, whole %d", lo, hi, part.Stats.Patterns, whole.Stats.Patterns)
			}
			for _, w := range part.Windows {
				if w.Seq < 0 || w.Seq >= hi-lo {
					t.Fatalf("range [%d,%d) window %+v outside the range", lo, hi, w)
				}
				w.Seq += lo
				windows = append(windows, w)
			}
			sum.ResiduesScanned += part.Stats.ResiduesScanned
			sum.SeedHits += part.Stats.SeedHits
			sum.Windows += part.Stats.Windows
			sum.CandidateResidues += part.Stats.CandidateResidues
			sum.TotalResidues += part.Stats.TotalResidues
		}
		sum.Patterns = whole.Stats.Patterns
		if sum != whole.Stats {
			t.Fatalf("cut %v: summed stats %+v, whole %+v", bounds, sum, whole.Stats)
		}
		if len(windows) != len(whole.Windows) {
			t.Fatalf("cut %v: %d windows, whole %d", bounds, len(windows), len(whole.Windows))
		}
		for i := range windows {
			if windows[i] != whole.Windows[i] {
				t.Fatalf("cut %v: window %d is %+v, whole %+v", bounds, i, windows[i], whole.Windows[i])
			}
		}
	})
}
