package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// These tests pin the recovery edge cases the cluster simulator exposes:
// a running→queued demotion racing a result that already landed on disk,
// and the ordering of jobs re-queued by a drain deadline.

// TestDemotionRacesLateResult: the previous process crashed after
// persisting a job's result body but before appending the done record (a
// torn WAL tail). Recovery sees "running", demotes to queued, and must
// re-execute — the running record is authoritative — with the fresh result
// replacing the stale body. The demotion must also zero the stale
// Started/Finished/Error fields.
func TestDemotionRacesLateResult(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "results"), 0o755); err != nil {
		t.Fatal(err)
	}
	// Build the crash scene by hand: a WAL whose last complete record says
	// running (the done line was torn away), plus the orphaned result body.
	rec := Job{
		ID:      "j-demoted",
		Key:     "stalekey",
		State:   StateRunning,
		Request: Request{QueriesFasta: ">q\nMKVL", Queries: 1, Residues: 4},
		Created: time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC),
		Started: time.Date(2026, 8, 1, 12, 0, 1, 0, time.UTC),
		Error:   "leftover from a previous failed attempt",
	}
	line, err := marshalRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(line, []byte(`{"id":"j-demoted","state":"do`)...)
	if err := os.WriteFile(filepath.Join(dir, walName), torn, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "results", "stalekey.json"), []byte(`{"stale":true}`), 0o644); err != nil {
		t.Fatal(err)
	}

	var execs int
	var mu sync.Mutex
	m, err := New(Config{
		Executors: 1,
		Dir:       dir,
		Executor: runFunc(func(ctx context.Context, r Request) ([]byte, error) {
			mu.Lock()
			execs++
			mu.Unlock()
			return []byte(`{"fresh":true}`), nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())

	got := waitState(t, m, "j-demoted", StateDone)
	if !got.Started.After(rec.Started) {
		t.Errorf("re-execution kept the stale Started time: %v", got.Started)
	}
	if got.Error != "" {
		t.Errorf("demotion kept the stale Error: %q", got.Error)
	}
	mu.Lock()
	if execs != 1 {
		t.Errorf("demoted job executed %d times, want 1", execs)
	}
	mu.Unlock()
	body, _, err := m.Result("j-demoted")
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		Fresh bool `json:"fresh"`
		Stale bool `json:"stale"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Fresh || res.Stale {
		t.Errorf("re-execution served the stale on-disk body: %s", body)
	}
}

// TestDrainRequeueOrdering: jobs bounced back to the queue by a drain
// deadline must re-run after reboot in priority order, FIFO by creation
// within a level — a requeued job gets no special treatment over jobs that
// were still queued when the drain hit.
func TestDrainRequeueOrdering(t *testing.T) {
	dir := t.TempDir()
	running := make(chan struct{}, 1)
	m1, err := New(Config{
		Executors: 1,
		Dir:       dir,
		Executor: runFunc(func(ctx context.Context, r Request) ([]byte, error) {
			running <- struct{}{}
			<-ctx.Done()
			return nil, ctx.Err()
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	// low-running starts executing; high and low-queued wait behind it.
	lowRunning, err := m1.Submit(Request{QueriesFasta: "low-running", Queries: 1, Residues: 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	<-running
	high, err := m1.Submit(Request{QueriesFasta: "high", Queries: 1, Residues: 1, Priority: 5}, true)
	if err != nil {
		t.Fatal(err)
	}
	lowQueued, err := m1.Submit(Request{QueriesFasta: "low-queued", Queries: 1, Residues: 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	expired, cancel := context.WithCancel(context.Background())
	cancel() // drain deadline already past: abort the running job now
	if err := m1.Close(expired); err != nil {
		t.Fatal(err)
	}

	var order []string
	var mu sync.Mutex
	m2, err := New(Config{
		Executors: 1,
		Dir:       dir,
		Executor: runFunc(func(ctx context.Context, r Request) ([]byte, error) {
			mu.Lock()
			order = append(order, r.QueriesFasta)
			mu.Unlock()
			return []byte(`{}`), nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close(context.Background())
	waitState(t, m2, lowRunning.ID, StateDone)
	waitState(t, m2, high.ID, StateDone)
	waitState(t, m2, lowQueued.ID, StateDone)
	mu.Lock()
	defer mu.Unlock()
	want := []string{"high", "low-running", "low-queued"}
	if len(order) != len(want) {
		t.Fatalf("execution order after recovery = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution order after recovery = %v, want %v", order, want)
		}
	}
}

// TestRecoveryIndexesNewestDone pins how recovery rebuilds the key index:
// of two done records for one key, a repeat after restart is answered from
// the newer one without running anything; and a key with both a recovered
// queued job and a done record coalesces into the queued job.
func TestRecoveryIndexesNewestDone(t *testing.T) {
	dir := t.TempDir()
	open := func(executors int, body string) *Manager {
		t.Helper()
		m, err := New(Config{
			Executors: executors,
			Dir:       dir,
			Executor: runFunc(func(context.Context, Request) ([]byte, error) {
				if body == "" {
					return nil, errors.New("must not run")
				}
				return []byte(body), nil
			}),
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m1 := open(1, `{"n":1}`)
	first, err := m1.Submit(req("x"), true)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m1, first.ID, StateDone)
	second, err := m1.Submit(req("x"), false)
	if err != nil || !second.CacheHit {
		t.Fatalf("repeat: %v %+v", err, second)
	}
	if _, _, err := m1.WaitResult(context.Background(), second.ID); err != nil {
		t.Fatal(err)
	}
	if err := m1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	m2 := open(1, "")
	m2.mu.Lock()
	indexed := m2.byKey[second.Key]
	m2.mu.Unlock()
	if indexed == nil || indexed.ID != second.ID {
		t.Fatalf("recovered index points at %+v, want the newer record %s", indexed, second.ID)
	}
	hit, err := m2.Submit(req("x"), false)
	if err != nil || !hit.CacheHit {
		t.Fatalf("repeat after restart: %v %+v", err, hit)
	}
	body, got, err := m2.WaitResult(context.Background(), hit.ID)
	if err != nil || got.State != StateDone || string(body) != `{"n":1}` {
		t.Fatalf("repeat after restart: %s body %q, err %v", got.State, body, err)
	}
	if err := m2.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Hide the persisted result so the next boot's repeat misses and queues
	// a job behind the done records, then restore it: the queued job must
	// still win the key after a restart.
	path := filepath.Join(dir, resultsDir, second.Key+".json")
	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	m3 := open(-1, "")
	queued, err := m3.Submit(req("x"), true)
	if err != nil || queued.CacheHit || queued.State != StateQueued {
		t.Fatalf("repeat with no readable result: %v %+v", err, queued)
	}
	if err := m3.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, saved, 0o644); err != nil {
		t.Fatal(err)
	}
	m4 := open(-1, "")
	defer m4.Close(context.Background())
	dup, err := m4.Submit(req("x"), true)
	if err != nil || dup.ID != queued.ID || dup.CacheHit {
		t.Fatalf("repeat beside a recovered queued job: %v %+v, want coalesced into %s", err, dup, queued.ID)
	}
}
