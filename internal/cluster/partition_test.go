package cluster

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/sched"
	"repro/internal/seq"
)

func TestPartitionCoversDatabaseContiguously(t *testing.T) {
	p, err := dataset.ProfileByName("Ensembl Dog Proteins")
	if err != nil {
		t.Fatal(err)
	}
	db := dataset.Generate(p.Scale(0.001), 11)
	for n := 1; n <= len(db); n++ {
		bounds := partition(db, n)
		if len(bounds) != n {
			t.Fatalf("n=%d: %d shards", n, len(bounds))
		}
		prev := 0
		for i, b := range bounds {
			if b.Lo != prev {
				t.Fatalf("n=%d shard %d: starts at %d, want %d (contiguous, no gaps)", n, i, b.Lo, prev)
			}
			if b.Hi <= b.Lo {
				t.Fatalf("n=%d shard %d: empty range %v", n, i, b)
			}
			prev = b.Hi
		}
		if prev != len(db) {
			t.Fatalf("n=%d: covers %d of %d sequences", n, prev, len(db))
		}
	}
}

func TestPartitionBalancesResidues(t *testing.T) {
	p, err := dataset.ProfileByName("UniProtKB/SwissProt")
	if err != nil {
		t.Fatal(err)
	}
	db := dataset.Generate(p.Scale(0.002), 3)
	var total int64
	for _, d := range db {
		total += int64(d.Len())
	}
	const n = 4
	ideal := total / n
	for i, b := range partition(db, n) {
		res := b.Residues
		// Greedy splitting can overshoot by at most one sequence; the
		// profile's longest sequences are far under half the ideal share,
		// so every shard should land within 2x of it.
		if res > 2*ideal {
			t.Errorf("shard %d holds %d residues, ideal %d: partition badly unbalanced", i, res, ideal)
		}
	}
}

func TestShardStateStrings(t *testing.T) {
	want := map[ShardState]string{
		ShardPending:   "pending",
		ShardScanning:  "scanning",
		ShardDone:      "done",
		ShardFailed:    "failed",
		ShardState(99): "ShardState(99)",
	}
	for s, w := range want {
		if got := s.String(); got != w {
			t.Errorf("%d.String() = %q, want %q", int(s), got, w)
		}
	}
}

func TestBoardSnapshotsShardProgress(t *testing.T) {
	db := []*seq.Sequence{seq.New("a", "", []byte("ACDEFGHIKL")), seq.New("b", "", []byte("MNPQRSTVWY"))}
	shards := []*shard{
		{index: 0, db: db[:1], residues: 10},
		{index: 1, db: db[1:], offset: 1, residues: 10},
	}
	queries := db[:1]
	var snaps [][]ShardStatus
	b := newBoard(shards, queries, true, 10, Params{
		OnShards: func(s []ShardStatus) { snaps = append(snaps, s) },
	})
	b.setProgress(0, 80, 1e6)
	b.setState(0, ShardScanning)
	b.finish(0)
	b.setState(1, ShardFailed)
	last := snaps[len(snaps)-1]
	if last[0].State != ShardDone || last[0].Cells != 80 || last[1].State != ShardFailed {
		t.Errorf("final snapshot %+v", last)
	}
	// A filtered shard's budget is its residues' prefilter equivalents per
	// query, which its finished tally reaches exactly.
	if want := 10 * int64(sched.PrefilterEquivCells); last[0].TotalCells != want || last[1].TotalCells != want {
		t.Errorf("filtered totals %+v, want %d each", last, want)
	}
}

// FuzzRangeCut drives partition — the cut behind both shards and range
// tasks — with arbitrary length lists and part counts: the parts must be
// contiguous, cover [0, len(db)) exactly once, never be empty, and their
// residue counts must be the true ones, so they add up to the database's.
func FuzzRangeCut(f *testing.F) {
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6}, uint8(3))
	f.Add([]byte{0, 0, 0, 7}, uint8(4))
	f.Add([]byte{200}, uint8(1))
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 255}, uint8(16))
	f.Fuzz(func(t *testing.T, lengths []byte, parts uint8) {
		if len(lengths) == 0 {
			return
		}
		db := make([]*seq.Sequence, len(lengths))
		for i, n := range lengths {
			db[i] = seq.New("s", "", make([]byte, n))
		}
		n := 1 + int(parts)%len(db)
		cut := partition(db, n)
		if len(cut) != n {
			t.Fatalf("%d parts, want %d", len(cut), n)
		}
		next := 0
		for i, r := range cut {
			if r.Lo != next || r.Hi <= r.Lo {
				t.Fatalf("part %d is [%d,%d) after a cut ending at %d: %v", i, r.Lo, r.Hi, next, cut)
			}
			var residues int64
			for _, d := range db[r.Lo:r.Hi] {
				residues += int64(d.Len())
			}
			if r.Residues != residues {
				t.Fatalf("part %d claims %d residues, holds %d: %v", i, r.Residues, residues, cut)
			}
			next = r.Hi
		}
		if next != len(db) {
			t.Fatalf("cut covers %d of %d sequences: %v", next, len(db), cut)
		}
	})
}
