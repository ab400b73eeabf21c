package jobs

import (
	"bytes"
	"encoding/json"
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
