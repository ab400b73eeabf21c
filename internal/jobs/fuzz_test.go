package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"
)

// walFixture builds a realistic (snapshot, wal) pair: a snapshot of two
// terminal jobs, and a WAL carrying a queued→running→done progression, a
// duplicate record, and one job present in both snapshot and WAL (the WAL
// must win).
func walFixture(t testing.TB) (snapshot, wal []byte) {
	t0 := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	snapJobs := []Job{
		{ID: "j01", Key: "k1", State: StateDone, Created: t0, Finished: t0.Add(time.Second)},
		{ID: "j02", Key: "k2", State: StateFailed, Created: t0.Add(time.Second), Error: "boom"},
	}
	raw, err := json.Marshal(snapJobs)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, j := range []Job{
		{ID: "j02", Key: "k2", State: StateDone, Created: t0.Add(time.Second)}, // overrides snapshot
		{ID: "j03", Key: "k3", State: StateQueued, Created: t0.Add(2 * time.Second)},
		{ID: "j03", Key: "k3", State: StateRunning, Created: t0.Add(2 * time.Second)},
		{ID: "j03", Key: "k3", State: StateRunning, Created: t0.Add(2 * time.Second)}, // duplicate
		{ID: "j03", Key: "k3", State: StateDone, Created: t0.Add(2 * time.Second)},
	} {
		line, err := marshalRecord(j)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
	}
	return raw, buf.Bytes()
}

// FuzzWALReplay feeds arbitrary snapshot/WAL byte pairs to the recovery
// path. replay must never panic, and whatever it accepts must be stable:
// re-serializing the recovered records as a snapshot plus an empty WAL
// (exactly what compaction writes) and replaying again must reproduce the
// same records — recovery is idempotent over its own output.
func FuzzWALReplay(f *testing.F) {
	snap, wal := walFixture(f)
	f.Add(snap, wal)
	f.Add([]byte(nil), wal)
	f.Add(snap, []byte(nil))
	// Torn tail: a crash mid-append leaves a half-written last line.
	f.Add(snap, wal[:len(wal)-7])
	// Garbage interleaved with valid records.
	f.Add([]byte("[]"), append([]byte("{not json}\n"), wal...))

	f.Fuzz(func(t *testing.T, snapshot, walBytes []byte) {
		if len(snapshot) > 1<<20 || len(walBytes) > 1<<20 {
			return
		}
		recs, err := replay(snapshot, walBytes)
		if err != nil {
			return // corrupt snapshot must error, not panic
		}
		reSnap, err := json.Marshal(recs)
		if err != nil {
			t.Fatalf("recovered records do not re-marshal: %v", err)
		}
		again, err := replay(reSnap, nil)
		if err != nil {
			t.Fatalf("replaying recovery's own snapshot failed: %v", err)
		}
		a, err := json.Marshal(recs)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("replay not idempotent:\nfirst:  %s\nsecond: %s", a, b)
		}
	})
}

// TestReplaySemantics pins the recovery contract on the fixture: last WAL
// record wins, torn tails drop silently, order is by Created then ID.
func TestReplaySemantics(t *testing.T) {
	snap, wal := walFixture(t)
	// Tear the final line mid-record: j03's done transition is lost, so the
	// last complete record (running) must win instead.
	torn := wal[:len(wal)-7]
	recs, err := replay(snap, torn)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3: %+v", len(recs), recs)
	}
	for i, want := range []struct {
		id    string
		state State
	}{
		{"j01", StateDone},
		{"j02", StateDone}, // WAL overrode the snapshot's failed
		{"j03", StateRunning},
	} {
		if recs[i].ID != want.id || recs[i].State != want.state {
			t.Errorf("record %d: got %s/%s, want %s/%s",
				i, recs[i].ID, recs[i].State, want.id, want.state)
		}
	}

	// A corrupt snapshot is a hard error.
	if _, err := replay([]byte("{broken"), nil); err == nil {
		t.Error("corrupt snapshot did not error")
	}
}

// FuzzResultHome is a model-based fuzz of where a finished result lives.
// The first byte picks durable or memory mode, a CacheBytes budget and
// MaxJobs; every later byte is one operation over four repeating keys:
// a synchronous or async Submit, a collect (WaitResult) of an uncollected
// synchronous submission, a Result, a Cancel, or, in durable mode, a
// close-and-reopen. A model tracks, per job ID, its key and who is still
// owed its body. After every operation:
//   - no call returns bytes other than the executor's body for the key;
//   - an owed body is readable: an uncollected synchronous submission's,
//     and without a durable store an async job's while it is retained;
//   - retained records ≤ MaxJobs + uncollected ones;
//   - held body bytes ≤ budget + owed body bytes.
func FuzzResultHome(f *testing.F) {
	f.Add([]byte{0x00, 0, 6, 2, 1, 7, 13, 3, 0, 2, 9, 4, 1, 1, 3})
	f.Add([]byte{0x03, 0, 1, 6, 7, 5, 0, 2, 13, 19, 5, 9, 3, 4, 2})
	f.Add([]byte{0x1b, 1, 7, 13, 19, 5, 0, 6, 12, 18, 2, 2, 2, 2, 5, 3, 9})
	f.Add([]byte{0x0e, 0, 0, 6, 6, 12, 12, 4, 10, 2, 2, 2, 5, 1, 3})

	const keys = 4
	fasta := func(k int) string { return fmt.Sprintf(">k%d\nMKVL", k) }
	result := func(k int) []byte { return bytes.Repeat([]byte{byte('a' + k)}, 10+20*k) }
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) < 2 || len(ops) > 64 {
			return
		}
		durable := ops[0]&1 == 1
		budget := []int64{-1, 40, 120, 1 << 20}[ops[0]>>1&3]
		maxJobs := 2 + int(ops[0]>>3&3)
		cfg := Config{
			Executors:  1,
			CacheBytes: budget,
			MaxJobs:    maxJobs,
			Executor: runFunc(func(ctx context.Context, r Request) ([]byte, error) {
				return result(int(r.QueriesFasta[2] - '0')), nil
			}),
		}
		if durable {
			cfg.Dir = t.TempDir()
		}
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = m.Close(context.Background()) }()

		type entry struct {
			key   int
			sync  int  // synchronous submissions not yet collected
			async bool // an async submission owns the job
		}
		model := map[string]*entry{}
		var ids []string
		owed := func(e *entry) bool { return e.sync > 0 || (e.async && !durable) }
		checkBody := func(op, id string, body []byte) {
			if want := result(model[id].key); body != nil && !bytes.Equal(body, want) {
				t.Fatalf("%s %s: body %q, want %q", op, id, body, want)
			}
		}
		check := func() {
			m.mu.Lock()
			var held, owedBytes int64
			uncollected := 0
			for _, j := range m.finished {
				e := model[j.ID]
				if e == nil {
					m.mu.Unlock()
					t.Fatalf("retained record %s was never submitted", j.ID)
				}
				held += int64(len(j.body))
				if owed(e) {
					owedBytes += int64(len(j.body))
				}
				if e.sync > 0 {
					uncollected++
				}
			}
			retained, counted := len(m.finished), m.held
			m.mu.Unlock()
			if held != counted {
				t.Fatalf("held bytes %d, Manager counts %d", held, counted)
			}
			if held > max(budget, 0)+owedBytes {
				t.Fatalf("held %d bytes > budget %d + owed %d", held, budget, owedBytes)
			}
			if retained > maxJobs+uncollected {
				t.Fatalf("%d records retained > MaxJobs %d + %d uncollected", retained, maxJobs, uncollected)
			}
			for _, id := range ids {
				e := model[id]
				if !owed(e) {
					continue
				}
				body, snap, err := m.Result(id)
				switch {
				case errors.Is(err, ErrNotFound) && e.sync == 0:
					// An async record in memory mode is pruned past MaxJobs.
				case err != nil:
					t.Fatalf("owed result of %s: %v", id, err)
				case snap.State == StateDone:
					if body == nil {
						t.Fatalf("owed result of %s: no body", id)
					}
					checkBody("Result", id, body)
				}
			}
		}

		for _, b := range ops[1:] {
			arg := int(b / 6)
			switch b % 6 {
			case 0, 1:
				async := b%6 == 1
				k := arg % keys
				j, err := m.Submit(req(fasta(k)), async)
				if err != nil {
					var rej *RejectError
					if !errors.As(err, &rej) {
						t.Fatalf("submit: %v", err)
					}
					continue
				}
				e := model[j.ID]
				if e == nil {
					e = &entry{key: k}
					model[j.ID] = e
					ids = append(ids, j.ID)
				} else if e.key != k {
					t.Fatalf("key %d coalesced into %s of key %d", k, j.ID, e.key)
				}
				if async {
					e.async = true
				} else {
					e.sync++
				}
				if j.CacheHit && j.ResultBytes != int64(len(result(k))) {
					t.Fatalf("hit %s: %d result bytes, want %d", j.ID, j.ResultBytes, len(result(k)))
				}
			case 2:
				var waiting []string
				for _, id := range ids {
					if model[id].sync > 0 {
						waiting = append(waiting, id)
					}
				}
				if len(waiting) == 0 {
					continue
				}
				id := waiting[arg%len(waiting)]
				body, snap, err := m.WaitResult(context.Background(), id)
				if err != nil {
					t.Fatalf("collect %s: %v", id, err)
				}
				model[id].sync--
				if snap.State == StateDone {
					checkBody("WaitResult", id, body)
				}
			case 3:
				if len(ids) > 0 {
					id := ids[arg%len(ids)]
					body, _, _ := m.Result(id)
					checkBody("Result", id, body)
				}
			case 4:
				if len(ids) > 0 {
					_, _ = m.Cancel(ids[arg%len(ids)])
				}
			case 5:
				if !durable {
					continue
				}
				if err := m.Close(context.Background()); err != nil {
					t.Fatal(err)
				}
				if m, err = New(cfg); err != nil {
					t.Fatal(err)
				}
				// The old process's synchronous waiters are gone with it.
				for _, e := range model {
					e.sync = 0
				}
			}
			check()
		}
	})
}
