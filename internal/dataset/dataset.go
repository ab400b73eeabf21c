// Package dataset generates deterministic synthetic protein databases and
// query sets matching the profiles of the paper's Table II.
//
// The original evaluation compares 40 real query sequences against five
// public databases (Ensembl Dog/Rat, RefSeq Human/Mouse,
// UniProtKB/SwissProt). Those downloads are unavailable offline, and the
// scheduling experiments depend on the databases only through their size
// profile — sequence count and length distribution — which enters every
// formula as DP cell counts. This package reproduces the profiles (scaled
// versions included, for tests and real-compute runs) with realistic
// residue composition so the compute kernels do real work, and derives
// query sets the way the paper does: lengths equally distributed between
// 100 and ~5,000 amino acids, drawn from database content so that
// homologous hits exist.
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/seq"
)

// Profile describes a database's size and length distribution. Sequence
// lengths are drawn from a clamped log-normal, the textbook fit for protein
// databases.
type Profile struct {
	Name    string
	NumSeqs int
	MeanLen float64 // arithmetic mean sequence length
	SigmaLn float64 // log-space standard deviation
	MinLen  int
	MaxLen  int
}

// TableII returns the five database profiles of the paper's Table II.
// Sequence counts are the paper's exact numbers; mean lengths are the
// published statistics of the 2012-era releases (SwissProt averaged ~355
// aa; Ensembl/RefSeq proteomes run longer, ~480-560 aa).
func TableII() []Profile {
	return []Profile{
		{Name: "Ensembl Dog Proteins", NumSeqs: 25160, MeanLen: 481, SigmaLn: 0.75, MinLen: 30, MaxLen: 15000},
		{Name: "Ensembl Rat Proteins", NumSeqs: 32971, MeanLen: 465, SigmaLn: 0.75, MinLen: 30, MaxLen: 15000},
		{Name: "RefSeq Human Proteins", NumSeqs: 34705, MeanLen: 555, SigmaLn: 0.78, MinLen: 30, MaxLen: 20000},
		{Name: "RefSeq Mouse Proteins", NumSeqs: 29437, MeanLen: 506, SigmaLn: 0.76, MinLen: 30, MaxLen: 20000},
		{Name: "UniProtKB/SwissProt", NumSeqs: 537505, MeanLen: 355, SigmaLn: 0.70, MinLen: 10, MaxLen: 36000},
	}
}

// ProfileByName finds a Table II profile by (case-sensitive) name.
func ProfileByName(name string) (Profile, error) {
	for _, p := range TableII() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("dataset: unknown database %q", name)
}

// Residues returns the expected total residue count, the quantity the
// virtual-time experiments consume without generating any sequences.
func (p Profile) Residues() int64 {
	return int64(math.Round(float64(p.NumSeqs) * p.MeanLen))
}

// Scale returns a copy with the sequence count scaled by f (at least 1
// sequence), used to build laptop-sized variants for real-compute runs.
func (p Profile) Scale(f float64) Profile {
	out := p
	out.Name = fmt.Sprintf("%s (x%g)", p.Name, f)
	out.NumSeqs = int(math.Round(float64(p.NumSeqs) * f))
	if out.NumSeqs < 1 {
		out.NumSeqs = 1
	}
	return out
}

// Robinson-Robinson amino-acid background frequencies (per mil), in the
// order of the 20 canonical residues below.
var (
	aaLetters = []byte("ACDEFGHIKLMNPQRSTVWY")
	aaFreqs   = []float64{78, 19, 54, 63, 39, 74, 22, 51, 57, 90, 22, 45, 52, 43, 51, 71, 58, 64, 13, 32}
)

// sampler draws residues from the background distribution.
type sampler struct {
	rng *rand.Rand
	cum []float64
}

func newSampler(rng *rand.Rand) *sampler {
	cum := make([]float64, len(aaFreqs))
	total := 0.0
	for i, f := range aaFreqs {
		total += f
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return &sampler{rng: rng, cum: cum}
}

func (s *sampler) residue() byte {
	r := s.rng.Float64()
	for i, c := range s.cum {
		if r <= c {
			return aaLetters[i]
		}
	}
	return aaLetters[len(aaLetters)-1]
}

func (s *sampler) sequence(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = s.residue()
	}
	return out
}

// length draws one sequence length from the profile's clamped log-normal.
func (p Profile) length(rng *rand.Rand) int {
	// For a log-normal with parameters (mu, sigma), mean = exp(mu+sigma²/2).
	mu := math.Log(p.MeanLen) - p.SigmaLn*p.SigmaLn/2
	n := int(math.Round(math.Exp(rng.NormFloat64()*p.SigmaLn + mu)))
	if n < p.MinLen {
		n = p.MinLen
	}
	if p.MaxLen > 0 && n > p.MaxLen {
		n = p.MaxLen
	}
	return n
}

// Generate builds the database deterministically from the seed.
func Generate(p Profile, seed int64) []*seq.Sequence {
	rng := rand.New(rand.NewSource(seed))
	smp := newSampler(rng)
	db := make([]*seq.Sequence, p.NumSeqs)
	for i := range db {
		n := p.length(rng)
		db[i] = seq.New(fmt.Sprintf("DB%06d", i), fmt.Sprintf("synthetic %s", p.Name), smp.sequence(n))
	}
	return db
}

// QueryLengths returns n lengths equally distributed over [minLen, maxLen],
// the paper's query-selection rule (40 queries from 100 to ~5,000 aa).
func QueryLengths(n, minLen, maxLen int) []int {
	if n <= 0 {
		return nil
	}
	out := make([]int, n)
	if n == 1 {
		out[0] = minLen
		return out
	}
	step := float64(maxLen-minLen) / float64(n-1)
	for i := range out {
		out[i] = minLen + int(math.Round(step*float64(i)))
	}
	return out
}

// Queries derives n query sequences of equally distributed lengths from the
// database: each query is stitched from mutated fragments of database
// sequences, so real hits exist. With an empty db the queries are pure
// background samples.
func Queries(db []*seq.Sequence, n, minLen, maxLen int, seed int64) []*seq.Sequence {
	rng := rand.New(rand.NewSource(seed))
	smp := newSampler(rng)
	lengths := QueryLengths(n, minLen, maxLen)
	out := make([]*seq.Sequence, n)
	for i, want := range lengths {
		var buf []byte
		for len(buf) < want {
			if len(db) > 0 && rng.Float64() < 0.8 {
				src := db[rng.Intn(len(db))].Residues
				if len(src) > 0 {
					k := min(len(src), 50+rng.Intn(200))
					start := 0
					if len(src) > k {
						start = rng.Intn(len(src) - k)
					}
					frag := src[start : start+k]
					for _, c := range frag {
						if rng.Float64() < 0.05 { // point mutations
							c = smp.residue()
						}
						buf = append(buf, c)
					}
					continue
				}
			}
			buf = append(buf, smp.sequence(min(want-len(buf), 100))...)
		}
		buf = buf[:want]
		out[i] = seq.New(fmt.Sprintf("Q%02d_len%d", i, want), "synthetic query", buf)
	}
	return out
}
