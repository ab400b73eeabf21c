package jobs

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

func rec(id string, st State) Job {
	return Job{ID: id, Key: "k" + id, State: st, Created: time.Unix(1700000000, 0)}
}

func TestStoreReplayLastWins(t *testing.T) {
	dir := t.TempDir()
	st, recs, err := openStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh dir recovered %d records", len(recs))
	}
	if err := st.append(rec("a", StateQueued)); err != nil {
		t.Fatal(err)
	}
	if err := st.append(rec("b", StateQueued)); err != nil {
		t.Fatal(err)
	}
	if err := st.append(rec("a", StateDone)); err != nil {
		t.Fatal(err)
	}
	if err := st.close(); err != nil {
		t.Fatal(err)
	}

	_, recs, err = openStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]State{}
	for _, r := range recs {
		byID[r.ID] = r.State
	}
	if len(byID) != 2 || byID["a"] != StateDone || byID["b"] != StateQueued {
		t.Fatalf("replayed records = %v", byID)
	}
}

func TestStoreTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	st, _, err := openStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.append(rec("a", StateQueued)); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a truncated, unparseable final line.
	if _, err := st.wal.WriteString(`{"id":"b","sta`); err != nil {
		t.Fatal(err)
	}
	_ = st.close()

	st, recs, err := openStore(dir)
	if err != nil {
		t.Fatalf("torn tail broke recovery: %v", err)
	}
	if len(recs) != 1 || recs[0].ID != "a" {
		t.Fatalf("recovered %v", recs)
	}
	// The first record written after recovery must not glue onto the torn
	// bytes: it has to survive the next boot as its own line.
	if err := st.append(rec("c", StateQueued)); err != nil {
		t.Fatal(err)
	}
	_ = st.close()
	_, recs, err = openStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].ID != "a" || recs[1].ID != "c" {
		t.Fatalf("after appending over the torn tail recovered %v, want a and c", recs)
	}
}

func TestStoreSnapshotCompactsAndPrunes(t *testing.T) {
	dir := t.TempDir()
	st, _, err := openStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.saveResult("keep", []byte(`{"x":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := st.saveResult("drop", []byte(`{"x":2}`)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := st.append(rec("a", StateQueued)); err != nil {
			t.Fatal(err)
		}
	}
	keep := Job{ID: "a", Key: "keep", State: StateDone}
	if err := st.snapshot([]Job{keep}, map[string]bool{"keep": true}); err != nil {
		t.Fatal(err)
	}
	if st.appends != 0 {
		t.Fatalf("appends = %d after snapshot", st.appends)
	}
	if fi, err := os.Stat(filepath.Join(dir, walName)); err != nil || fi.Size() != 0 {
		t.Fatalf("WAL not truncated: %v %d", err, fi.Size())
	}
	if _, ok := st.loadResult("keep"); !ok {
		t.Fatal("kept result pruned")
	}
	if _, ok := st.loadResult("drop"); ok {
		t.Fatal("unreferenced result survived snapshot")
	}
	// The WAL handle must still be usable after truncate-in-place.
	if err := st.append(rec("c", StateQueued)); err != nil {
		t.Fatalf("append after snapshot: %v", err)
	}
	_ = st.close()

	_, recs, err := openStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]State{}
	for _, r := range recs {
		byID[r.ID] = r.State
	}
	if byID["a"] != StateDone || byID["c"] != StateQueued {
		t.Fatalf("snapshot+WAL recovery = %v", byID)
	}
}

func TestStoreResultRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, _, err := openStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	if _, ok := st.loadResult("nope"); ok {
		t.Fatal("missing result loaded")
	}
	body := []byte(`{"results":[]}`)
	if err := st.saveResult("k1", body); err != nil {
		t.Fatal(err)
	}
	got, ok := st.loadResult("k1")
	if !ok || string(got) != string(body) {
		t.Fatalf("round trip = %q %v", got, ok)
	}
}
