// Package prefilter implements filtered search: an Aho-Corasick
// multi-pattern engine that scans database residues for exact k-mer seeds
// of the query and projects every seed hit onto a candidate window of the
// database sequence, then (rescore.go) the full Smith-Waterman kernel run
// only on those windows. Windows never cross a sequence, so any range of
// the database filters on its own.
//
// This is the engine class of the Aho-Corasick/Wu-Manber hybrid pipelines
// in related work: the filter is exact and cheap (a couple of table lookups
// per residue versus a DP row per residue), so on selective queries the
// pipeline touches a small fraction of the cells a full scan would. The
// filter is a heuristic with respect to Smith-Waterman — an alignment whose
// optimal path shares no sampled k-mer with the query can be missed — but
// whenever every hit's alignment is covered by an admitted window, rescored
// rankings are identical to the full scan's.
package prefilter

import (
	"fmt"
	"sort"

	"repro/internal/seq"
)

// Defaults for Spec fields left at their zero value.
const (
	// DefaultK is the seed k-mer length. 4 residues is selective on
	// protein alphabets (20^4 distinct words) while still dense enough
	// that real alignments almost always contain an exact 4-mer.
	DefaultK = 4
	// DefaultMargin is how many residues each projected window grows on
	// both sides, absorbing gaps that shift the alignment off the seed's
	// exact diagonal.
	DefaultMargin = 32
	// DefaultMaxPatterns caps the compiled pattern count; the seed stride
	// is raised until the query's seeds fit.
	DefaultMaxPatterns = 1024
)

// Spec parameterizes the prefilter stage. The zero value selects the
// defaults above. Spec travels inside wire task payloads and job cache
// keys, so all fields are exported and gob/JSON-stable.
type Spec struct {
	K           int `json:"k,omitempty"`            // seed k-mer length; <=0 means DefaultK
	Step        int `json:"step,omitempty"`         // stride between seed offsets; <=0 means 1 (auto-raised to honor MaxPatterns)
	Margin      int `json:"margin,omitempty"`       // window margin in residues; 0 means DefaultMargin, negative means none
	MaxPatterns int `json:"max_patterns,omitempty"` // distinct k-mer cap; <=0 means DefaultMaxPatterns
}

// Normalize resolves defaulted fields. Margin keeps a signed convention so
// the zero value means "default" while an explicit no-margin run is still
// expressible with any negative value.
func (s Spec) Normalize() Spec {
	if s.K <= 0 {
		s.K = DefaultK
	}
	if s.Step <= 0 {
		s.Step = 1
	}
	switch {
	case s.Margin == 0:
		s.Margin = DefaultMargin
	case s.Margin < 0:
		s.Margin = 0
	}
	if s.MaxPatterns <= 0 {
		s.MaxPatterns = DefaultMaxPatterns
	}
	return s
}

// Stats accounts one prefilter pass, in the units the metrics bundle and
// the job-level selectivity report use.
type Stats struct {
	Patterns          int   // distinct k-mer patterns compiled
	ResiduesScanned   int64 // database residues pushed through the automaton
	SeedHits          int64 // raw automaton matches before projection and merging
	Windows           int   // merged candidate windows emitted
	CandidateResidues int64 // residues covered by the emitted windows
	TotalResidues     int64 // database residues (selectivity denominator)
}

// Selectivity is the fraction of database residues the rescore stage must
// touch: CandidateResidues / TotalResidues, in [0, 1]. An empty database
// reports 0 (nothing to rescore).
func (s Stats) Selectivity() float64 {
	if s.TotalResidues == 0 {
		return 0
	}
	return float64(s.CandidateResidues) / float64(s.TotalResidues)
}

// Window is one candidate region of a database sequence, emitted by the
// prefilter scan and consumed by the rescore stage: the diagonal projection
// of seed hits, expanded by the margin, with overlapping windows merged.
type Window struct {
	Seq        int // database sequence index, within the scanned slice
	Start, End int // half-open residue range within the sequence
}

// Result is the outcome of one prefilter pass: the merged candidate
// windows (grouped by database sequence, ascending start within each) plus
// the accounting.
type Result struct {
	Windows []Window
	Stats   Stats
}

// Run scans the database for the query's k-mer seeds and returns the
// candidate windows a rescore stage should align. A query shorter than the
// configured k is seeded with a single query-length pattern; an empty query
// emits no windows.
func Run(query []byte, db []*seq.Sequence, spec Spec) (Result, error) {
	f, err := NewFilter(query, spec)
	if err != nil {
		return Result{}, err
	}
	return f.Scan(db), nil
}

// Filter is one query's compiled prefilter: its k-mer seeds and their
// Aho-Corasick automaton. Compiling costs a few times more than scanning a
// small database range, so one Filter serves every range of the query.
// Scan only reads it, so a Filter is safe for concurrent use.
type Filter struct {
	qlen     int
	margin   int
	patterns int
	a        *Automaton // nil when the query is empty
	offs     [][]int32  // query offsets of each pattern
}

// NewFilter compiles the query's Filter under spec.
func NewFilter(query []byte, spec Spec) (*Filter, error) {
	spec = spec.Normalize()
	if spec.K > len(query) {
		spec.K = len(query)
	}
	f := &Filter{qlen: len(query), margin: spec.Margin}
	if spec.K == 0 {
		return f, nil
	}
	pats, offs := compileSeeds(query, spec)
	a, err := Compile(pats)
	if err != nil {
		return nil, err
	}
	f.patterns, f.a, f.offs = len(pats), a, offs
	return f, nil
}

// Scan runs the filter over db. Windows index db itself, so scanning the
// slice db[lo:hi] of a larger database yields that range's windows shifted
// down by lo; candidate windows never cross a sequence, so the ranges of a
// cut together emit exactly the whole database's windows.
func (f *Filter) Scan(db []*seq.Sequence) Result {
	res := Result{Stats: Stats{Patterns: f.patterns}}
	for _, d := range db {
		res.Stats.TotalResidues += int64(d.Len())
	}
	if f.a == nil {
		return res
	}
	var wins []Window
	for si, d := range db {
		data := d.Residues
		res.Stats.ResiduesScanned += int64(len(data))
		wins = wins[:0]
		f.a.Scan(data, func(end, pat int) {
			res.Stats.SeedHits++
			matchStart := end - int(f.a.plen[pat])
			for _, qoff := range f.offs[pat] {
				// Diagonal projection: if the seed sits at query offset
				// qoff, a gapless alignment of the whole query starts at
				// matchStart-qoff; the margin absorbs gap-induced drift.
				start := max(matchStart-int(qoff)-f.margin, 0)
				stop := min(matchStart-int(qoff)+f.qlen+f.margin, len(data))
				if start >= stop {
					continue
				}
				wins = append(wins, Window{Seq: si, Start: start, End: stop})
			}
		})
		merged := mergeWindows(wins)
		for _, w := range merged {
			res.Stats.CandidateResidues += int64(w.End - w.Start)
		}
		res.Windows = append(res.Windows, merged...)
	}
	res.Stats.Windows = len(res.Windows)
	return res
}

// compileSeeds extracts the query's k-mer seed patterns. The stride starts
// at spec.Step and is raised until the seed count fits MaxPatterns;
// duplicate k-mers collapse into one pattern carrying every query offset.
func compileSeeds(query []byte, spec Spec) (pats [][]byte, offs [][]int32) {
	nseeds := func(step int) int { return (len(query)-spec.K)/step + 1 }
	step := spec.Step
	for nseeds(step) > spec.MaxPatterns {
		step++
	}
	idx := make(map[string]int)
	for off := 0; off+spec.K <= len(query); off += step {
		kmer := query[off : off+spec.K]
		i, ok := idx[string(kmer)]
		if !ok {
			i = len(pats)
			idx[string(kmer)] = i
			pats = append(pats, append([]byte(nil), kmer...))
			offs = append(offs, nil)
		}
		offs[i] = append(offs[i], int32(off))
	}
	return pats, offs
}

// mergeWindows sorts same-sequence windows by start and merges overlapping
// or adjacent ones, so the rescore stage never aligns a residue twice.
func mergeWindows(wins []Window) []Window {
	if len(wins) <= 1 {
		return wins
	}
	sort.Slice(wins, func(i, j int) bool { return wins[i].Start < wins[j].Start })
	out := wins[:1]
	for _, w := range wins[1:] {
		last := &out[len(out)-1]
		if w.Start <= last.End {
			if w.End > last.End {
				last.End = w.End
			}
			continue
		}
		out = append(out, w)
	}
	return out
}

// ValidateWindows checks that windows reference database sequences and
// ranges that exist in db.
func ValidateWindows(windows []Window, db []*seq.Sequence) error {
	for i, w := range windows {
		if w.Seq < 0 || w.Seq >= len(db) {
			return fmt.Errorf("prefilter: window %d references sequence %d of %d", i, w.Seq, len(db))
		}
		if w.Start < 0 || w.End > db[w.Seq].Len() || w.Start >= w.End {
			return fmt.Errorf("prefilter: window %d range [%d,%d) invalid for sequence of length %d", i, w.Start, w.End, db[w.Seq].Len())
		}
	}
	return nil
}
