package jobs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
)

func req(fasta string) Request {
	return Request{QueriesFasta: fasta, Queries: 1, Residues: int64(len(fasta))}
}

func waitState(t *testing.T, m *Manager, id string, want State) Job {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		j, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if j.State == want {
			return j
		}
		time.Sleep(2 * time.Millisecond)
	}
	j, _ := m.Get(id)
	t.Fatalf("job %s stuck in %s, want %s", id, j.State, want)
	return Job{}
}

func counter(t *testing.T, c *metrics.Counter, want float64, name string) {
	t.Helper()
	if got := c.Value(); got != want {
		t.Errorf("%s = %v, want %v", name, got, want)
	}
}

// TestSingleflightAndCache is the core coalescing contract: N identical
// submissions while one is in flight execute exactly once, and a later
// identical submission is served from the result cache without running.
func TestSingleflightAndCache(t *testing.T) {
	mm := NewMetrics(metrics.NewRegistry())
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	var execs atomic.Int32
	m, err := New(Config{
		Executors: 1,
		Metrics:   mm,
		Executor: runFunc(func(ctx context.Context, r Request) ([]byte, error) {
			execs.Add(1)
			started <- struct{}{}
			select {
			case <-release:
				return []byte(`{"ok":true}`), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())

	first, err := m.Submit(req(">q\nMKVL"), true)
	if err != nil {
		t.Fatal(err)
	}
	<-started // the job is running; duplicates must now coalesce

	const dups = 5
	for i := 0; i < dups; i++ {
		j, err := m.Submit(req(">q\nMKVL"), false)
		if err != nil {
			t.Fatal(err)
		}
		if j.ID != first.ID {
			t.Fatalf("duplicate got job %s, want coalesced into %s", j.ID, first.ID)
		}
	}
	close(release)
	j, err := m.Wait(context.Background(), first.ID)
	if err != nil || j.State != StateDone {
		t.Fatalf("wait: %v %s", err, j.State)
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("%d executions, want exactly 1", got)
	}
	counter(t, mm.Submitted, 1, "jobs_submitted_total")
	counter(t, mm.Coalesced, float64(dups), "jobs_coalesced_total")
	counter(t, mm.CacheMisses, 1, "jobs_cache_misses_total")
	counter(t, mm.CacheHits, 0, "jobs_cache_hits_total")
	counter(t, mm.Completed.With("done"), 1, "jobs_completed_total{done}")

	// Same request after completion: answered from the cache, no execution.
	hit, err := m.Submit(req(">q\nMKVL"), false)
	if err != nil {
		t.Fatal(err)
	}
	if hit.State != StateDone || !hit.CacheHit || hit.ID == first.ID {
		t.Fatalf("cache-hit job = %+v", hit)
	}
	body, _, err := m.Result(hit.ID)
	if err != nil || string(body) != `{"ok":true}` {
		t.Fatalf("cached result = %q %v", body, err)
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("%d executions after cache hit, want 1", got)
	}
	counter(t, mm.CacheHits, 1, "jobs_cache_hits_total")

	// A different request must not hit the cache.
	other, err := m.Submit(req(">q\nAAAA"), true)
	if err != nil {
		t.Fatal(err)
	}
	if other.CacheHit {
		t.Fatal("distinct request reported a cache hit")
	}
	waitState(t, m, other.ID, StateDone)
}

func TestQueueFullReject(t *testing.T) {
	mm := NewMetrics(metrics.NewRegistry())
	m, err := New(Config{
		Executors:  -1, // nothing drains the queue
		MaxQueue:   1,
		RetryAfter: 7 * time.Second,
		Metrics:    mm,
		Executor:   runFunc(func(context.Context, Request) ([]byte, error) { return nil, nil }),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())

	if _, err := m.Submit(req("a"), true); err != nil {
		t.Fatal(err)
	}
	_, err = m.Submit(req("b"), true)
	var rej *RejectError
	if !errors.As(err, &rej) || rej.Reason != "queue_full" {
		t.Fatalf("overload: %v", err)
	}
	if rej.RetryAfter != 7*time.Second {
		t.Fatalf("RetryAfter = %s", rej.RetryAfter)
	}
	counter(t, mm.Rejected.With("queue_full"), 1, "rejected{queue_full}")
	if d := mm.QueueDepth.Value(); d != 1 {
		t.Fatalf("queue depth = %v", d)
	}
}

func TestCancelQueued(t *testing.T) {
	m, err := New(Config{
		Executors: -1,
		Executor:  runFunc(func(context.Context, Request) ([]byte, error) { return nil, nil }),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())

	j, err := m.Submit(req("a"), true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Cancel(j.ID)
	if err != nil || got.State != StateCanceled {
		t.Fatalf("cancel queued: %v %s", err, got.State)
	}
	m.mu.Lock()
	d := m.q.len()
	m.mu.Unlock()
	if d != 0 {
		t.Fatalf("queue depth = %d after cancel", d)
	}
	// Wait returns immediately: the done channel closed on cancellation.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if got, err = m.Wait(ctx, j.ID); err != nil || got.State != StateCanceled {
		t.Fatalf("wait on cancelled: %v %s", err, got.State)
	}
	// Cancel is idempotent on terminal jobs.
	if got, err = m.Cancel(j.ID); err != nil || got.State != StateCanceled {
		t.Fatalf("re-cancel: %v %s", err, got.State)
	}
	if _, err := m.Cancel("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cancel unknown: %v", err)
	}
}

func TestCancelRunningAbortsWork(t *testing.T) {
	mm := NewMetrics(metrics.NewRegistry())
	m, err := New(Config{
		Executors: 1,
		Metrics:   mm,
		Executor: runFunc(func(ctx context.Context, r Request) ([]byte, error) {
			<-ctx.Done() // real work that only stops when cancelled
			return nil, ctx.Err()
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())

	j, err := m.Submit(req("a"), true)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, j.ID, StateRunning)
	if _, err := m.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	got := waitState(t, m, j.ID, StateCanceled)
	if got.Error == "" {
		t.Error("cancelled job has no error")
	}
	counter(t, mm.Completed.With("canceled"), 1, "completed{canceled}")
}

// TestWaiterDisconnectCancels: when the last synchronous waiter gives up,
// the job is cancelled — but an async submission pins it alive.
func TestWaiterDisconnectCancels(t *testing.T) {
	m, err := New(Config{
		Executors: 1,
		Executor: runFunc(func(ctx context.Context, r Request) ([]byte, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	// The async job below blocks until its context is cancelled, so Close
	// needs a deadline to abort (and requeue) it.
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = m.Close(ctx)
	}()

	sync1, err := m.Submit(req("sync"), false)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	waitErr := make(chan error, 1)
	go func() {
		_, err := m.Wait(ctx, sync1.ID)
		waitErr <- err
	}()
	waitState(t, m, sync1.ID, StateRunning)
	cancel()
	if err := <-waitErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("wait: %v", err)
	}
	waitState(t, m, sync1.ID, StateCanceled)

	// Async jobs survive their waiters: only DELETE cancels them.
	async1, err := m.Submit(req("async"), true)
	if err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel2()
	if _, err := m.Wait(ctx2, async1.ID); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("wait: %v", err)
	}
	time.Sleep(20 * time.Millisecond)
	if j, _ := m.Get(async1.ID); j.State != StateRunning {
		t.Fatalf("async job %s after waiter left, want running", j.State)
	}
}

// TestRestartResumesQueued: queued jobs written to the durable store are
// recovered and executed by the next Manager over the same dir.
func TestRestartResumesQueued(t *testing.T) {
	dir := t.TempDir()
	m1, err := New(Config{
		Executors: -1, // queue only; nothing runs before the "crash"
		Dir:       dir,
		Executor:  runFunc(func(context.Context, Request) ([]byte, error) { return nil, nil }),
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := m1.Submit(req("first"), true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m1.Submit(Request{QueriesFasta: "second", Queries: 1, Residues: 6, Priority: 3}, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.Close(context.Background()); err != nil {
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
			return []byte(`{"r":"` + r.QueriesFasta + `"}`), nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close(context.Background())
	waitState(t, m2, a.ID, StateDone)
	waitState(t, m2, b.ID, StateDone)
	body, _, err := m2.Result(b.ID)
	if err != nil || string(body) != `{"r":"second"}` {
		t.Fatalf("recovered result = %q %v", body, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "second" {
		t.Fatalf("execution order after recovery = %v (priority lost?)", order)
	}
}

// TestDrainRequeuesRunning: a job aborted by the drain deadline returns to
// the queue and the next boot re-executes it.
func TestDrainRequeuesRunning(t *testing.T) {
	dir := t.TempDir()
	m1, err := New(Config{
		Executors: 1,
		Dir:       dir,
		Executor: runFunc(func(ctx context.Context, r Request) ([]byte, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	j, err := m1.Submit(req("slow"), true)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m1, j.ID, StateRunning)
	expired, cancel := context.WithCancel(context.Background())
	cancel() // drain deadline already past: abort immediately
	if err := m1.Close(expired); err != nil {
		t.Fatal(err)
	}

	m2, err := New(Config{
		Executors: 1,
		Dir:       dir,
		Executor:  runFunc(func(context.Context, Request) ([]byte, error) { return []byte(`{}`), nil }),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close(context.Background())
	got := waitState(t, m2, j.ID, StateDone)
	if got.CacheHit {
		t.Error("re-executed job claims a cache hit")
	}
}

// TestTerminalHistorySurvivesRestart: finished jobs reload as history with
// their results readable.
func TestTerminalHistorySurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	m1, err := New(Config{
		Executors: 1,
		Dir:       dir,
		Executor:  runFunc(func(context.Context, Request) ([]byte, error) { return []byte(`{"n":1}`), nil }),
	})
	if err != nil {
		t.Fatal(err)
	}
	j, err := m1.Submit(req("x"), true)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m1, j.ID, StateDone)
	if err := m1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	m2, err := New(Config{
		Executors: 1,
		Dir:       dir,
		Executor:  runFunc(func(context.Context, Request) ([]byte, error) { return nil, fmt.Errorf("must not run") }),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close(context.Background())
	got, err := m2.Get(j.ID)
	if err != nil || got.State != StateDone {
		t.Fatalf("history job: %v %+v", err, got)
	}
	body, _, err := m2.Result(j.ID)
	if err != nil || string(body) != `{"n":1}` {
		t.Fatalf("history result = %q %v", body, err)
	}
	// And the cache key still matches: a repeat submission is a hit.
	hit, err := m2.Submit(req("x"), false)
	if err != nil || !hit.CacheHit {
		t.Fatalf("repeat after restart: %v %+v", err, hit)
	}
}

func TestSubmitAfterCloseRejected(t *testing.T) {
	m, err := New(Config{Executor: runFunc(func(context.Context, Request) ([]byte, error) { return nil, nil })})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(context.Background()); err != nil {
		t.Fatalf("second close: %v", err)
	}
	_, err = m.Submit(req("x"), false)
	var rej *RejectError
	if !errors.As(err, &rej) || rej.Reason != "draining" {
		t.Fatalf("submit after close: %v", err)
	}
}

func TestFailedJobReportsError(t *testing.T) {
	mm := NewMetrics(metrics.NewRegistry())
	m, err := New(Config{
		Executors: 1,
		Metrics:   mm,
		Executor:  runFunc(func(context.Context, Request) ([]byte, error) { return nil, fmt.Errorf("kernel exploded") }),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	j, err := m.Submit(req("x"), true)
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, m, j.ID, StateFailed)
	if got.Error != "kernel exploded" {
		t.Fatalf("error = %q", got.Error)
	}
	counter(t, mm.Completed.With("failed"), 1, "completed{failed}")
	// A failed job frees its singleflight slot: the same request re-runs.
	j2, err := m.Submit(req("x"), true)
	if err != nil {
		t.Fatal(err)
	}
	if j2.ID == j.ID {
		t.Fatal("failed job still holds the singleflight slot")
	}
}

// TestHammer drives every public entry point concurrently; run under -race
// (make test includes ./internal/jobs/... in RACE_PKGS) it shakes out
// locking mistakes across queue, cache, store and waiter bookkeeping.
func TestHammer(t *testing.T) {
	mm := NewMetrics(metrics.NewRegistry())
	m, err := New(Config{
		Executors:  3,
		MaxQueue:   16,
		CacheBytes: 64, // tiny: force constant eviction traffic
		Dir:        t.TempDir(),
		Metrics:    mm,
		Executor: runFunc(func(ctx context.Context, r Request) ([]byte, error) {
			select {
			case <-time.After(time.Duration(len(r.QueriesFasta)) * 100 * time.Microsecond):
				return []byte(`{"f":"` + r.QueriesFasta + `"}`), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}),
	})
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 60; i++ {
				fasta := fmt.Sprintf(">q\nSEQ%d", rng.Intn(6))
				j, err := m.Submit(Request{
					QueriesFasta: fasta, Queries: 1, Residues: int64(len(fasta)),
					Priority: rng.Intn(3),
				}, rng.Intn(2) == 0)
				if err != nil {
					var rej *RejectError
					if !errors.As(err, &rej) {
						t.Errorf("submit: %v", err)
						return
					}
					continue // queue_full under load is expected
				}
				switch rng.Intn(4) {
				case 0:
					ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
					_, _ = m.Wait(ctx, j.ID)
					cancel()
				case 1:
					_, _ = m.Cancel(j.ID)
				case 2:
					_, _, _ = m.Result(j.ID)
				default:
					_, _ = m.Get(j.ID)
					_ = m.List()
				}
			}
		}(int64(g))
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if got := mm.ExecutorsBusy.Value(); got != 0 {
		t.Errorf("executors busy after close = %v", got)
	}
}

func TestKeyIncludesModeAndFilter(t *testing.T) {
	m, err := New(Config{Executor: runFunc(func(context.Context, Request) ([]byte, error) { return nil, nil }), Executors: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	base := req(">q\nMKVL\n")
	variants := []Request{
		base,
		{QueriesFasta: base.QueriesFasta, Mode: "filtered"},
		{QueriesFasta: base.QueriesFasta, Mode: "filtered", FilterK: 3},
		{QueriesFasta: base.QueriesFasta, Mode: "filtered", FilterMargin: 64},
	}
	seen := map[string]int{}
	for i, v := range variants {
		k := m.key(v)
		if prev, dup := seen[k]; dup {
			t.Errorf("variants %d and %d share key %s", prev, i, k)
		}
		seen[k] = i
	}
}

func TestSetShardsLifecycle(t *testing.T) {
	started := make(chan context.Context)
	release := make(chan struct{})
	m, err := New(Config{Executor: runFunc(func(ctx context.Context, r Request) ([]byte, error) {
		started <- ctx
		<-release
		return []byte("ok"), nil
	}), Executors: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	j, err := m.Submit(req(">q\nACDE\n"), true)
	if err != nil {
		t.Fatal(err)
	}
	ctx := <-started
	if got := JobID(ctx); got != j.ID {
		t.Fatalf("JobID(ctx) = %q, want %q", got, j.ID)
	}
	// Progress from the run context lands on the job; a foreign context is
	// dropped silently.
	shard := func(cells int64) []ShardProgress {
		return []ShardProgress{{Shard: 0, State: "scanning", Cells: cells, TotalCells: 40}}
	}
	m.SetShards(ctx, shard(10))
	m.SetShards(ctx, shard(20))
	m.SetShards(context.Background(), shard(40))
	snap, _ := m.Get(j.ID)
	if len(snap.Shards) != 1 || snap.Shards[0].Cells != 20 || snap.Shards[0].TotalCells != 40 {
		t.Fatalf("shards = %+v, want the run context's last update", snap.Shards)
	}
	close(release)
	waitState(t, m, j.ID, StateDone)
	// Progress survives completion; post-terminal updates are dropped.
	m.SetShards(ctx, shard(40))
	snap, _ = m.Get(j.ID)
	if snap.Shards[0].Cells != 20 {
		t.Fatalf("post-terminal update applied: %+v", snap.Shards)
	}
}

// runFunc adapts a bare job body to the Executor seam.
type runFunc func(ctx context.Context, req Request) ([]byte, error)

func (f runFunc) Kind() Backend { return BackendLocal }

func (f runFunc) Execute(ctx context.Context, req Request) ([]byte, error) { return f(ctx, req) }

// TestRetentionBoundedInMemory pins the one retention path: a memory-only
// Manager (no Dir, so no snapshot ever runs) keeps at most MaxJobs terminal
// records however many jobs finish, and a terminal record carries no query
// FASTA. Synchronous waiters still get their bodies from the job with the
// cache disabled.
func TestRetentionBoundedInMemory(t *testing.T) {
	const maxJobs = 16
	m, err := New(Config{
		Executors:  2,
		MaxJobs:    maxJobs,
		CacheBytes: -1,
		Executor: runFunc(func(ctx context.Context, r Request) ([]byte, error) {
			return []byte("result of " + r.QueriesFasta), nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	for i := 0; i < maxJobs+100; i++ {
		fa := fmt.Sprintf(">q%d\nMKVL", i)
		j, err := m.Submit(req(fa), false)
		if err != nil {
			t.Fatal(err)
		}
		body, j, err := m.WaitResult(context.Background(), j.ID)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if string(body) != "result of "+fa {
			t.Fatalf("job %d: body %q", i, body)
		}
		if j.Request.QueriesFasta != "" {
			t.Fatalf("job %d: terminal record keeps its FASTA", i)
		}
	}
	all := m.List()
	if len(all) > maxJobs {
		t.Fatalf("%d records retained, MaxJobs %d", len(all), maxJobs)
	}
	for _, j := range all {
		if !j.State.Terminal() || j.Request.QueriesFasta != "" {
			t.Fatalf("retained record %s: state %s, fasta %q", j.ID, j.State, j.Request.QueriesFasta)
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, j := range m.jobs {
		if j.body != nil {
			t.Fatalf("job %s still holds its collected body", j.ID)
		}
	}
}

// TestAsyncResultOutlivesCacheInMemory pins that a memory-only Manager
// keeps a done async job's body on its record: a result larger than the
// whole cache budget (which trimming would drop were the body not owed)
// is still readable, as is one older than many newer results.
func TestAsyncResultOutlivesCacheInMemory(t *testing.T) {
	big := bytes.Repeat([]byte("h"), 4096)
	m, err := New(Config{
		Executors:  1,
		CacheBytes: 1024,
		Executor: runFunc(func(ctx context.Context, r Request) ([]byte, error) {
			if r.QueriesFasta == ">big\nMKVL" {
				return big, nil
			}
			return bytes.Repeat([]byte(r.QueriesFasta[:2]), 256), nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	first, err := m.Submit(req(">a\nMKVL"), true)
	if err != nil {
		t.Fatal(err)
	}
	large, err := m.Submit(req(">big\nMKVL"), true)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, large.ID, StateDone)
	for i := 0; i < 8; i++ { // 4 KB of newer results, far over the budget of held bodies
		j, err := m.Submit(req(fmt.Sprintf(">%d\nMKVL", i)), true)
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, m, j.ID, StateDone)
	}
	body, _, err := m.Result(large.ID)
	if err != nil || !bytes.Equal(body, big) {
		t.Fatalf("over-budget result: %d bytes, err %v", len(body), err)
	}
	body, _, err = m.Result(first.ID)
	if err != nil || !bytes.Equal(body, bytes.Repeat([]byte(">a"), 256)) {
		t.Fatalf("evicted result: %d bytes, err %v", len(body), err)
	}
}

// TestPruneSparesUncollected pins that retention never drops a record a
// synchronous submitter has not collected yet: a cache hit retires inside
// Submit, and more than MaxJobs completions before its WaitResult must not
// take its body away.
func TestPruneSparesUncollected(t *testing.T) {
	const maxJobs = 2
	m, err := New(Config{
		Executors: 1,
		MaxJobs:   maxJobs,
		Executor: runFunc(func(ctx context.Context, r Request) ([]byte, error) {
			return []byte("result of " + r.QueriesFasta), nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	warm, err := m.Submit(req(">s\nMKVL"), true)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, warm.ID, StateDone)
	held, err := m.Submit(req(">s\nMKVL"), false)
	if err != nil {
		t.Fatal(err)
	}
	if !held.CacheHit || held.State != StateDone {
		t.Fatalf("repeat submission = %+v, want a done cache hit", held)
	}
	for i := 0; i < maxJobs+3; i++ {
		j, err := m.Submit(req(fmt.Sprintf(">%d\nMKVL", i)), true)
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, m, j.ID, StateDone)
	}
	body, _, err := m.WaitResult(context.Background(), held.ID)
	if err != nil || string(body) != "result of >s\nMKVL" {
		t.Fatalf("uncollected job after %d completions: body %q, err %v", maxJobs+3, body, err)
	}
	// Collected, it is an ordinary record again: the next completion prunes it.
	j, err := m.Submit(req(">last\nMKVL"), true)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, j.ID, StateDone)
	if _, err := m.Get(held.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("collected record still retained: %v", err)
	}
	if n := len(m.List()); n > maxJobs {
		t.Fatalf("%d records retained, MaxJobs %d", n, maxJobs)
	}
}

// TestHeldBodiesWithinBudget pins the byte budget over held bodies: once
// synchronous submitters have collected, the jobs_cache_bytes gauge stays
// within CacheBytes, the newest record for a key still answers a repeat,
// and an older record whose body was trimmed reads its result back from
// results/ in durable mode and reports it evicted in memory mode.
func TestHeldBodiesWithinBudget(t *testing.T) {
	const budget = 300
	result := func(fasta string) []byte { return bytes.Repeat([]byte(fasta[1:3]), 50) }
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%t", durable), func(t *testing.T) {
			mm := NewMetrics(metrics.NewRegistry())
			var execs atomic.Int32
			cfg := Config{
				Executors:  1,
				CacheBytes: budget,
				Metrics:    mm,
				Executor: runFunc(func(ctx context.Context, r Request) ([]byte, error) {
					execs.Add(1)
					return result(r.QueriesFasta), nil
				}),
			}
			if durable {
				cfg.Dir = t.TempDir()
			}
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close(context.Background())
			var ids []string
			for i := 0; i < 20; i++ {
				fa := fmt.Sprintf(">%02d\nMKVL", i)
				j, err := m.Submit(req(fa), false)
				if err != nil {
					t.Fatal(err)
				}
				body, _, err := m.WaitResult(context.Background(), j.ID)
				if err != nil || !bytes.Equal(body, result(fa)) {
					t.Fatalf("job %d: body %q, err %v", i, body, err)
				}
				if held := mm.CacheBytes.Value(); held > budget {
					t.Fatalf("after job %d: %v bytes held, budget %d", i, held, budget)
				}
				ids = append(ids, j.ID)
			}

			newest := fmt.Sprintf(">%02d\nMKVL", 19)
			hit, err := m.Submit(req(newest), false)
			if err != nil || !hit.CacheHit {
				t.Fatalf("repeat of the newest key: %v %+v", err, hit)
			}
			if body, _, err := m.WaitResult(context.Background(), hit.ID); err != nil || !bytes.Equal(body, result(newest)) {
				t.Fatalf("repeat of the newest key: body %q, err %v", body, err)
			}

			oldest := fmt.Sprintf(">%02d\nMKVL", 0)
			body, _, err := m.Result(ids[0])
			if !durable {
				if err == nil || !strings.Contains(err.Error(), "evicted") {
					t.Fatalf("trimmed record in memory mode: body %q, err %v", body, err)
				}
				return
			}
			if err != nil || !bytes.Equal(body, result(oldest)) {
				t.Fatalf("trimmed record in durable mode: body %q, err %v", body, err)
			}
			before := execs.Load()
			hit, err = m.Submit(req(oldest), false)
			if err != nil || !hit.CacheHit {
				t.Fatalf("repeat of a trimmed key: %v %+v", err, hit)
			}
			if body, _, err := m.WaitResult(context.Background(), hit.ID); err != nil || !bytes.Equal(body, result(oldest)) {
				t.Fatalf("repeat of a trimmed key: body %q, err %v", body, err)
			}
			if execs.Load() != before {
				t.Fatal("repeat of a trimmed key re-executed")
			}
		})
	}
}
