package wire

import "slices"

// HitLess is the module-wide hit-ranking contract: score descending, then
// database index ascending. Every layer that orders hits — the slave's
// per-task top-k cut, the master core's per-query merge, and the cluster
// backend's cross-shard scatter-gather merge — must use exactly this
// comparator. That single definition is what makes a sharded run's ranking
// byte-identical to a single-node run's: (Score, Index) is unique per hit,
// so any list sorted with HitLess has exactly one legal order regardless of
// which engine, replica or shard produced each entry.
func HitLess(a, b Hit) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Index < b.Index
}

// compareHits is HitLess as the three-way comparison slices.SortFunc takes.
func compareHits(a, b Hit) int {
	switch {
	case HitLess(a, b):
		return -1
	case HitLess(b, a):
		return 1
	}
	return 0
}

// SortHits orders hits best-first under HitLess, in place. The sort need
// not be stable: every list it is given holds at most one hit per database
// index (a task scores each sequence of its range once, first-copy-wins
// keeps one result per task, and shard offsets lift indices onto one
// global axis), so no two hits compare equal and there is one order only.
func SortHits(hits []Hit) { slices.SortFunc(hits, compareHits) }
