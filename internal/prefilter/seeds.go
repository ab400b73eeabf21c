package prefilter

// seedTable finds the query's k-mer seeds in database residues. Every seed
// has the same length k, so whether one ends at a position depends only
// on the last k residues: the table is BLAST's word lookup table, or
// Wu-Manber's HASH table with block size k. The scan keeps the last
// min(k, 8) residue bytes packed in a word, hashes it into a 2^16-bit
// bitmap that fits in L1 and rejects almost every position, and confirms
// a bitmap hit with an exact lookup of the k residues. No step of the
// loop waits on a load the previous step made, and any k and any byte
// values work.
type seedTable struct {
	k     int
	mask  uint64 // keeps the last min(k, 8) bytes of the rolling word
	bits  [1 << bitmapBits / 64]uint64
	index map[string]int32 // k-mer -> pattern index
}

const (
	bitmapBits = 16
	// hashMul is Fibonacci hashing's multiplier, 2^64 / golden ratio: the
	// top bits of word*hashMul depend on every bit of the word.
	hashMul = 0x9E3779B97F4A7C15
)

// seedHit is one seed occurrence: pattern pat ends just before end.
type seedHit struct{ end, pat int32 }

// newSeedTable returns an empty table for k-mers, sized for about n of them.
func newSeedTable(k, n int) *seedTable {
	return &seedTable{k: k, mask: ^uint64(0) >> (64 - 8*min(k, 8)), index: make(map[string]int32, n)}
}

// add enters kmer, whose length must be k, and returns its pattern index.
// A k-mer already in the table keeps the index it was first given.
func (t *seedTable) add(kmer string) int32 {
	if pat, ok := t.index[kmer]; ok {
		return pat
	}
	pat := int32(len(t.index))
	t.index[kmer] = pat
	var word uint64
	for i := 0; i < len(kmer); i++ {
		word = word<<8 | uint64(kmer[i])
	}
	h := (word & t.mask) * hashMul >> (64 - bitmapBits)
	t.bits[h/64] |= 1 << (h % 64)
	return pat
}

// patterns returns how many distinct k-mers the table holds.
func (t *seedTable) patterns() int { return len(t.index) }

// scan appends to hits every seed occurrence in data, in ascending end
// order. Distinct k-mers of one length cannot end at the same position,
// so each end appears at most once.
func (t *seedTable) scan(data []byte, hits []seedHit) []seedHit {
	k := t.k
	if len(data) < k {
		return hits
	}
	var word uint64
	for _, b := range data[:k-1] {
		word = word<<8 | uint64(b)
	}
	mask := t.mask
	for i := k - 1; i < len(data); i++ {
		word = (word<<8 | uint64(data[i])) & mask
		h := word * hashMul >> (64 - bitmapBits)
		if t.bits[h/64]&(1<<(h%64)) == 0 {
			continue
		}
		if pat, ok := t.index[string(data[i+1-k:i+1])]; ok {
			hits = append(hits, seedHit{end: int32(i + 1), pat: pat})
		}
	}
	return hits
}
