// Command swalign aligns two sequences with Smith-Waterman (both phases:
// score and traceback) and prints the local alignment, the paper's §II-A
// worked end to end. The traceback is sw.AlignLinearSpace, the Myers-Miller
// aligner that serving runs for a search's best hits.
//
// Usage:
//
//	swalign -a query.fasta -b target.fasta [-open 10 -extend 2] [-matrix BLOSUM62]
//
// Each input file's first sequence is used. With -seq, the arguments are
// taken as literal residue strings instead of paths.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/fasta"
	"repro/internal/score"
	"repro/internal/seq"
	"repro/internal/sw"
)

func main() {
	var (
		aPath   = flag.String("a", "", "first sequence (FASTA path, or residues with -seq)")
		bPath   = flag.String("b", "", "second sequence (FASTA path, or residues with -seq)")
		literal = flag.Bool("seq", false, "treat -a/-b as literal residue strings")
		open    = flag.Int("open", 10, "gap open penalty")
		extend  = flag.Int("extend", 2, "gap extend penalty")
		matrix  = flag.String("matrix", "BLOSUM62", "substitution matrix: BLOSUM62, BLOSUM50 or DNA")
		width   = flag.Int("width", 60, "alignment columns per output block")
	)
	flag.Parse()
	if *aPath == "" || *bPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	a, err := load(*aPath, *literal, "a")
	if err != nil {
		fail("%v", err)
	}
	b, err := load(*bPath, *literal, "b")
	if err != nil {
		fail("%v", err)
	}

	var m *score.Matrix
	switch *matrix {
	case "BLOSUM62":
		m = score.BLOSUM62
	case "BLOSUM50":
		m = score.BLOSUM50
	case "DNA":
		m = score.NewMatchMismatch(seq.DNA, 1, -1)
	default:
		fail("unknown matrix %q", *matrix)
	}
	scheme := score.Scheme{Matrix: m, Gap: score.AffineGap(*open, *extend)}
	if err := scheme.Validate(); err != nil {
		fail("%v", err)
	}

	aln := sw.AlignLinearSpace(a.Residues, b.Residues, scheme)

	fmt.Printf("%s (%d aa) vs %s (%d aa), %s, gaps %s\n\n",
		a.ID, a.Len(), b.ID, b.Len(), m.Name(), scheme.Gap)
	fmt.Print(aln.Format(scheme, *width))
}

func load(arg string, literal bool, name string) (*seq.Sequence, error) {
	if literal {
		return seq.New(name, "", []byte(arg)), nil
	}
	seqs, err := fasta.ReadFile(arg)
	if err != nil {
		return nil, err
	}
	if len(seqs) == 0 {
		return nil, fmt.Errorf("%s: no sequences", arg)
	}
	return seqs[0], nil
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "swalign: "+format+"\n", args...)
	os.Exit(1)
}
