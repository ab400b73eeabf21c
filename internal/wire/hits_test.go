package wire

import (
	"math/rand"
	"sort"
	"testing"
)

// TestSortHitsMatchesHitLess: on lists with distinct indices, as every
// caller's are, the unstable SortHits yields the one order HitLess allows,
// the order a stable sort under HitLess gives, ties in score included.
func TestSortHitsMatchesHitLess(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 200; iter++ {
		n := rng.Intn(300)
		hits := make([]Hit, n)
		for i, idx := range rng.Perm(n) {
			hits[i] = Hit{SeqID: "s", Index: idx, Score: rng.Intn(8)}
		}
		want := append([]Hit(nil), hits...)
		sort.SliceStable(want, func(i, j int) bool { return HitLess(want[i], want[j]) })
		SortHits(hits)
		for i := range hits {
			if hits[i] != want[i] {
				t.Fatalf("iter %d: rank %d is %+v, want %+v", iter, i, hits[i], want[i])
			}
		}
	}
}
