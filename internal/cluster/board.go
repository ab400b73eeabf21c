package cluster

import (
	"sync"

	"repro/internal/sched"
	"repro/internal/seq"
)

// progressBoard folds the per-shard masters' progress hooks into one
// consistent view: every change snapshots all shard statuses for
// Params.OnShards. Hooks run under their shard master's lock, so the board
// does nothing slower than a copy under its own mutex.
type progressBoard struct {
	onShards func([]ShardStatus)

	mu       sync.Mutex
	statuses []ShardStatus
}

func newBoard(shards []*shard, queries []*seq.Sequence, filtered bool, queryResidues int64, p Params) *progressBoard {
	b := &progressBoard{
		onShards: p.OnShards,
		statuses: make([]ShardStatus, len(shards)),
	}
	for i, s := range shards {
		total := queryResidues * s.residues
		if filtered {
			total = int64(len(queries)) * s.residues * sched.PrefilterEquivCells
		}
		b.statuses[i] = ShardStatus{Shard: i, State: ShardPending, TotalCells: total}
	}
	return b
}

// emitLocked snapshots the statuses for the observer; call under mu, use
// the returned closure after releasing it.
func (b *progressBoard) emitLocked() func() {
	if b.onShards == nil {
		return func() {}
	}
	snap := make([]ShardStatus, len(b.statuses))
	copy(snap, b.statuses)
	return func() { b.onShards(snap) }
}

// setProgress records a shard master's finished-cell tally and the latest
// reporting replica's rate.
func (b *progressBoard) setProgress(shard int, cells int64, rate float64) {
	b.mu.Lock()
	st := &b.statuses[shard]
	st.Cells = cells
	st.Rate = rate
	if st.State == ShardPending {
		st.State = ShardScanning
	}
	emit := b.emitLocked()
	b.mu.Unlock()
	emit()
}

// setState forces a shard's lifecycle state (failover back to scanning,
// terminal failure).
func (b *progressBoard) setState(shard int, state ShardState) {
	b.mu.Lock()
	b.statuses[shard].State = state
	emit := b.emitLocked()
	b.mu.Unlock()
	emit()
}

// finish marks a shard's scan complete.
func (b *progressBoard) finish(shard int) {
	b.mu.Lock()
	b.statuses[shard].State = ShardDone
	emit := b.emitLocked()
	b.mu.Unlock()
	emit()
}
