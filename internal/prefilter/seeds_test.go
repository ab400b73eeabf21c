package prefilter

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// naiveScan is the oracle: for every pattern, try every start position with
// bytes.Equal. Quadratic, obviously correct.
func naiveScan(data []byte, patterns [][]byte) []seedHit {
	var out []seedHit
	for pi, p := range patterns {
		for i := 0; i+len(p) <= len(data); i++ {
			if bytes.Equal(data[i:i+len(p)], p) {
				out = append(out, seedHit{end: int32(i + len(p)), pat: int32(pi)})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].end != out[j].end {
			return out[i].end < out[j].end
		}
		return out[i].pat < out[j].pat
	})
	return out
}

// tableScan builds a seed table over patterns, all of length k, and scans
// data with it. It returns the hits and the distinct patterns, indexed as
// the table indexes them, and fails on a hit whose bytes are not its
// pattern or that does not end after the previous one.
func tableScan(t testing.TB, data []byte, k int, patterns [][]byte) ([]seedHit, [][]byte) {
	tab := newSeedTable(k, len(patterns))
	var distinct [][]byte
	for _, p := range patterns {
		if len(p) != k {
			t.Fatalf("pattern %q is not %d bytes", p, k)
		}
		if pat := tab.add(string(p)); int(pat) == len(distinct) {
			distinct = append(distinct, p)
		} else if !bytes.Equal(distinct[pat], p) {
			t.Fatalf("add(%q) = %d, which holds %q", p, pat, distinct[pat])
		}
	}
	if tab.patterns() != len(distinct) {
		t.Fatalf("patterns() = %d, want %d", tab.patterns(), len(distinct))
	}
	hits := tab.scan(data, nil)
	for i, h := range hits {
		if h.pat < 0 || int(h.pat) >= len(distinct) {
			t.Fatalf("scan emitted pattern index %d of %d", h.pat, len(distinct))
		}
		want := distinct[h.pat]
		if int(h.end) < k || int(h.end) > len(data) || !bytes.Equal(data[int(h.end)-k:h.end], want) {
			t.Fatalf("scan reported pattern %q ending at %d of %d bytes", want, h.end, len(data))
		}
		if i > 0 && h.end <= hits[i-1].end {
			t.Fatalf("hit %d ends at %d, after hit %d at %d", i, h.end, i-1, hits[i-1].end)
		}
	}
	return hits, distinct
}

func TestSeedTableVsNaiveHandPicked(t *testing.T) {
	cases := []struct {
		name     string
		data     string
		patterns []string
	}{
		{"classic", "ushers", []string{"she", "his", "her"}},
		{"overlapping", "aaaaaa", []string{"aaa"}},
		{"duplicate-patterns", "xyxyxy", []string{"xy", "xy", "yx"}},
		{"no-match", "GATTACA", []string{"TTT", "CCC"}},
		{"bytes-outside-alphabet", "AC-GT-ACGT", []string{"ACGT", "C-GT"}},
		{"pattern-is-whole-data", "HELLO", []string{"HELLO"}},
		{"pattern-longer-than-data", "HELL", []string{"HELLO"}},
		{"single-byte-patterns", "mississippi", []string{"s", "i", "p"}},
		{"unicode-bytes", "héllo héll", []string{"héll", "llo h"}},
		{"zero-bytes", "A\x00\x00A\x00\x00\x00A", []string{"\x00\x00A", "\x00\x00\x00"}},
		{"longer-than-word", "AAAAQWERTYUI-BBBBQWERTYUI", []string{"BBBBQWERTYUI", "CCCCQWERTYUI", "AAAAQWERTYUI"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pats := make([][]byte, len(tc.patterns))
			for i, p := range tc.patterns {
				pats[i] = []byte(p)
			}
			got, distinct := tableScan(t, []byte(tc.data), len(pats[0]), pats)
			if want := naiveScan([]byte(tc.data), distinct); !slices.Equal(got, want) {
				t.Fatalf("table found %v, naive found %v", got, want)
			}
		})
	}
}

// TestSeedTableVsNaiveRandom runs the differential over random seed banks
// and texts for k = 1..16 on small alphabets (which make hits and shared
// suffixes common) and on all 256 byte values.
func TestSeedTableVsNaiveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alphabets := []string{"ab", "ACGT", protein, ""}
	for trial := 0; trial < 400; trial++ {
		sigma := alphabets[trial%len(alphabets)]
		draw := func() byte {
			if sigma == "" {
				return byte(rng.Intn(256))
			}
			return sigma[rng.Intn(len(sigma))]
		}
		data := make([]byte, rng.Intn(300))
		for j := range data {
			data[j] = draw()
		}
		k := 1 + rng.Intn(16)
		pats := make([][]byte, 1+rng.Intn(12))
		for i := range pats {
			if len(data) >= k && rng.Intn(2) == 0 {
				at := rng.Intn(len(data) - k + 1)
				pats[i] = data[at : at+k]
				continue
			}
			pats[i] = make([]byte, k)
			for j := range pats[i] {
				pats[i][j] = draw()
			}
		}
		got, distinct := tableScan(t, data, k, pats)
		if want := naiveScan(data, distinct); !slices.Equal(got, want) {
			t.Fatalf("trial %d (alphabet %q, k=%d, patterns %q, text %q): table %v, naive %v", trial, sigma, k, distinct, data, got, want)
		}
	}
}

// TestSeedTableRejectsBitmapCollisions plants a text word that shares its
// bitmap bit with a pattern but differs from it: the exact lookup must
// turn the bitmap hit down, at k = 8 (the word is the whole k-mer) and
// k = 11 (the word is its last 8 residues).
func TestSeedTableRejectsBitmapCollisions(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	bucket := map[uint64][]byte{}
	var pat, other []byte
	for pat == nil {
		w := randomResidues(rng, 8)
		var word uint64
		for _, b := range w {
			word = word<<8 | uint64(b)
		}
		h := word * hashMul >> (64 - bitmapBits)
		if prev, ok := bucket[h]; ok && !bytes.Equal(prev, w) {
			pat, other = prev, w
		}
		bucket[h] = w
	}
	for _, prefix := range []string{"", "MKV"} {
		p := append([]byte(prefix), pat...)
		data := append(append([]byte("WW"), prefix...), other...)
		tab := newSeedTable(len(p), 1)
		tab.add(string(p))
		if hits := tab.scan(data, nil); len(hits) != 0 {
			t.Fatalf("k=%d: pattern %q reported in %q: %v", len(p), p, data, hits)
		}
		data = append(data, p...)
		if hits := tab.scan(data, nil); len(hits) != 1 || int(hits[0].end) != len(data) {
			t.Fatalf("k=%d: pattern %q at the end of %q reported as %v", len(p), p, data, hits)
		}
	}
}

// FuzzSeedTableVsNaive is the fuzz form of the differential: an
// equal-length seed bank of k = 1..16 over arbitrary bytes (patBlob cut
// into k-byte patterns, plus the k-mers of data that the bytes of picks
// point at, so hits are common) against the naive oracle. Any divergence,
// or a hit with wrong bytes or out of order (checked inside tableScan),
// fails.
func FuzzSeedTableVsNaive(f *testing.F) {
	f.Add([]byte("ushers"), []byte("shehishers"), uint8(2), []byte{})
	f.Add([]byte("aaaaaa"), []byte("aaa"), uint8(2), []byte{1})
	f.Add([]byte("GATTACAGATTACA\x00\x00GATTACA"), []byte("\x00\x00GA"), uint8(3), []byte{0, 5, 9})
	f.Add([]byte("MKVLAAGIVLLLAWQPTSAMKVLAAGIVLLQ"), []byte("QWERTYUIOPASDFGH"), uint8(11), []byte{0, 17})
	f.Fuzz(func(t *testing.T, data, patBlob []byte, k uint8, picks []byte) {
		if len(data) > 1<<12 {
			return
		}
		kk := 1 + int(k)%16
		var pats [][]byte
		for i := 0; i+kk <= len(patBlob) && len(pats) < 64; i += kk {
			pats = append(pats, patBlob[i:i+kk])
		}
		for _, p := range picks {
			if len(data) >= kk && len(pats) < 128 {
				at := int(p) % (len(data) - kk + 1)
				pats = append(pats, data[at:at+kk])
			}
		}
		if len(pats) == 0 {
			return
		}
		got, distinct := tableScan(t, data, kk, pats)
		if want := naiveScan(data, distinct); !slices.Equal(got, want) {
			t.Fatalf("table %v != naive %v (data %q, k=%d, patterns %q)", got, want, data, kk, distinct)
		}
	})
}

// BenchmarkSeedScan measures the seed table on a 200 aa query's seeds
// over 1 MiB of random residues (residues/s), at the default k = 4 and at
// k = 5, and the cost of compiling the query's Filter at k = 5.
func BenchmarkSeedScan(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	query := randomResidues(rng, 200)
	data := randomResidues(rng, 1<<20)
	for _, k := range []int{4, 5} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			seeds, _ := compileSeeds(query, Spec{K: k}.Normalize())
			b.SetBytes(int64(len(data)))
			var hits []seedHit
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hits = seeds.scan(data, hits[:0])
			}
			b.ReportMetric(float64(b.N)*float64(len(data))/b.Elapsed().Seconds(), "residues/s")
		})
	}
	b.Run("compile", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := NewFilter(query, Spec{K: 5}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
