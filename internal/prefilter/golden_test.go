package prefilter

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/seq"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/scan.golden from the current Filter.Scan")

// goldenDB is a fixed database for the scan pin: 48 sequences of 20..1200
// residues over the protein alphabet plus 'X', with each query planted
// into two sequences long enough to hold it, the second copy with every
// seventh residue mutated.
func goldenDB(rng *rand.Rand, queries [][]byte) []*seq.Sequence {
	const alpha = protein + "X"
	db := make([]*seq.Sequence, 48)
	for i := range db {
		res := make([]byte, 20+rng.Intn(1181))
		for j := range res {
			res[j] = alpha[rng.Intn(len(alpha))]
		}
		db[i] = seq.New(fmt.Sprintf("g%02d", i), "", res)
	}
	for _, q := range queries {
		for copyN := 0; copyN < 2; copyN++ {
			var d *seq.Sequence
			for d == nil || d.Len() < len(q) {
				d = db[rng.Intn(len(db))]
			}
			at := rng.Intn(d.Len() - len(q) + 1)
			copy(d.Residues[at:], q)
			if copyN == 1 {
				for j := at; j < at+len(q); j += 7 {
					d.Residues[j] = protein[rng.Intn(len(protein))]
				}
			}
		}
	}
	return db
}

// goldenScan renders Filter.Scan's windows and Stats over goldenDB for
// every k in {1,3,4,5,8,9,12,20}, step 1 and 3, and query lengths
// 3/10/200/600.
func goldenScan(t *testing.T) []byte {
	rng := rand.New(rand.NewSource(35))
	var queries [][]byte
	for _, n := range []int{3, 10, 200, 600} {
		queries = append(queries, randomResidues(rng, n))
	}
	db := goldenDB(rng, queries)
	var buf bytes.Buffer
	for _, q := range queries {
		for _, k := range []int{1, 3, 4, 5, 8, 9, 12, 20} {
			for _, step := range []int{1, 3} {
				f, err := NewFilter(q, Spec{K: k, Step: step})
				if err != nil {
					t.Fatal(err)
				}
				res := f.Scan(db)
				fmt.Fprintf(&buf, "qlen=%d k=%d step=%d %+v\n", len(q), k, step, res.Stats)
				for _, w := range res.Windows {
					fmt.Fprintf(&buf, "\t%d [%d,%d)\n", w.Seq, w.Start, w.End)
				}
			}
		}
	}
	return buf.Bytes()
}

// TestScanMatchesGolden pins Filter.Scan byte for byte against windows and
// counts recorded from the Aho-Corasick scanner the seed table replaced.
// Run with -update to rewrite the file after an intended change.
func TestScanMatchesGolden(t *testing.T) {
	got := goldenScan(t)
	path := filepath.Join("testdata", "scan.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("line %d: got %q, want %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("got %d lines, want %d", len(gl), len(wl))
	}
}
