package jobs

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
)

// RetryAfterFor's depth mapping is part of the HTTP contract (clients obey
// Retry-After); pin it exactly.
func TestRetryAfterForMapping(t *testing.T) {
	base := 2 * time.Second
	cases := []struct {
		depth, executors int
		want             time.Duration
	}{
		{0, 2, 2 * time.Second},
		{4, 2, 4 * time.Second},
		{64, 2, 34 * time.Second},
		{240, 2, 60 * time.Second}, // capped at MaxRetryAfter
		{10, 0, 12 * time.Second},  // executors clamps to 1
		{-5, 2, 2 * time.Second},   // negative depth clamps to 0
	}
	for _, c := range cases {
		if got := RetryAfterFor(base, c.depth, c.executors); got != c.want {
			t.Errorf("RetryAfterFor(2s, %d, %d) = %v, want %v", c.depth, c.executors, got, c.want)
		}
	}
	// Zero base falls back to the default hint.
	if got := RetryAfterFor(0, 0, 1); got != DefaultRetryAfter {
		t.Errorf("RetryAfterFor(0, 0, 1) = %v, want %v", got, DefaultRetryAfter)
	}
}

func tjob(id, tenant string, prio, queries int, residues int64) *job {
	return &job{Job: Job{ID: id, Request: Request{
		Tenant: tenant, Priority: prio, Queries: queries, Residues: residues,
	}}}
}

// Equal-weight fair queueing alternates between a heavy and a light tenant
// instead of draining the heavy tenant's backlog first.
func TestDRFDequeueAlternates(t *testing.T) {
	book := NewTenantBook(nil, TenantConfig{})
	q := newQueue(book)
	for i := 0; i < 4; i++ {
		q.push(tjob(fmt.Sprintf("a%d", i), "alice", 0, 1, 100))
	}
	for i := 0; i < 2; i++ {
		q.push(tjob(fmt.Sprintf("b%d", i), "bob", 0, 1, 100))
	}
	if got, want := fmt.Sprint(popOrder(q)), "[a0 b0 a1 b1 a2 a3]"; got != want {
		t.Fatalf("pop order %s, want %s", got, want)
	}
}

// A weight-2 tenant is charged half per dequeue and receives twice the
// service of a weight-1 tenant with the same demand.
func TestDRFWeightsSkewService(t *testing.T) {
	cfg := map[string]TenantConfig{"alice": {Weight: 2}}
	book := NewTenantBook(cfg, TenantConfig{})
	q := newQueue(book)
	for i := 0; i < 4; i++ {
		q.push(tjob(fmt.Sprintf("a%d", i), "alice", 0, 1, 100))
		q.push(tjob(fmt.Sprintf("b%d", i), "bob", 0, 1, 100))
	}
	var first6 []string
	for i := 0; i < 6; i++ {
		first6 = append(first6, q.pop().ID)
	}
	na := 0
	for _, id := range first6 {
		if id[0] == 'a' {
			na++
		}
	}
	if na != 4 {
		t.Fatalf("weight-2 tenant got %d of first 6 pops (%v), want 4", na, first6)
	}
}

// DRF charges each request by its dominant dimension: a many-queries tenant
// and a many-residues tenant with equal dominant shares alternate.
func TestDRFChargesDominantDimension(t *testing.T) {
	book := NewTenantBook(nil, TenantConfig{})
	q := newQueue(book)
	for i := 0; i < 3; i++ {
		// alice: residue-heavy (2 in residue share, negligible in queries).
		q.push(tjob(fmt.Sprintf("a%d", i), "alice", 0, 1, 2*DRFRefResidues))
		// bob: query-heavy (2 in query share, negligible in residues).
		q.push(tjob(fmt.Sprintf("b%d", i), "bob", 0, 2*DRFRefQueries, 16))
	}
	if got, want := fmt.Sprint(popOrder(q)), "[a0 b0 a1 b1 a2 b2]"; got != want {
		t.Fatalf("pop order %s, want %s", got, want)
	}
}

// TestSingleTenantMatchesPriorityFIFO: with one tenant the fair queue is
// that tenant's priority FIFO, whatever the DRF charges. Random pushes (mixed
// priorities, queries and residues), pops and removes must pop exactly what
// a reference priority FIFO pops. Every deployment without tenants runs this
// order.
func TestSingleTenantMatchesPriorityFIFO(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q := newQueue(nil)
		var ref []*job // highest priority first, push order within a level
		for op := 0; op < 300; op++ {
			switch k := rng.Intn(10); {
			case k < 5:
				j := tjob(fmt.Sprintf("j%d", op), "", rng.Intn(4), 1+rng.Intn(200), int64(1+rng.Intn(1<<22)))
				q.push(j)
				i := len(ref)
				for i > 0 && ref[i-1].Request.Priority < j.Request.Priority {
					i--
				}
				ref = append(ref[:i], append([]*job{j}, ref[i:]...)...)
			case k < 8:
				j := q.pop()
				if len(ref) == 0 {
					if j != nil {
						t.Fatalf("seed %d op %d: empty queue popped %s", seed, op, j.ID)
					}
					continue
				}
				if j != ref[0] {
					t.Fatalf("seed %d op %d: popped %v, reference priority FIFO pops %s", seed, op, j, ref[0].ID)
				}
				ref = ref[1:]
			default:
				if len(ref) == 0 {
					continue
				}
				i := rng.Intn(len(ref))
				if !q.remove(ref[i]) {
					t.Fatalf("seed %d op %d: remove of queued %s failed", seed, op, ref[i].ID)
				}
				ref = append(ref[:i], ref[i+1:]...)
			}
		}
		if q.len() != len(ref) {
			t.Fatalf("seed %d: queue holds %d, reference %d", seed, q.len(), len(ref))
		}
	}
}

// TestNewRejectsBadWeights: a weight that is not a finite number >= 0 fails
// New, for a named tenant and for the defaults. An infinite weight would
// charge its tenant nothing per dequeue, so its pass would never advance and
// every other tenant would wait behind its whole backlog.
func TestNewRejectsBadWeights(t *testing.T) {
	exec := runFunc(func(context.Context, Request) ([]byte, error) { return nil, nil })
	for _, w := range []float64{math.Inf(1), math.Inf(-1), math.NaN(), -1} {
		for _, cfg := range []Config{
			{Tenants: map[string]TenantConfig{"alice": {Weight: w}, "bob": {Weight: 1}}},
			{TenantDefaults: TenantConfig{Weight: w}},
		} {
			cfg.Executor, cfg.Executors = exec, -1
			if m, err := New(cfg); err == nil {
				m.Close(context.Background())
				t.Errorf("weight %v accepted (tenants %v, defaults %v)", w, cfg.Tenants, cfg.TenantDefaults)
			}
		}
	}
	m, err := New(Config{
		Executor: exec, Executors: -1,
		Tenants:        map[string]TenantConfig{"alice": {Weight: 0}, "bob": {Weight: 2.5}},
		TenantDefaults: TenantConfig{Weight: 1e9},
	})
	if err != nil {
		t.Fatalf("finite weights rejected: %v", err)
	}
	m.Close(context.Background())
}

// An over-quota submission is rejected with the machine-readable reason the
// HTTP layer maps to 429, a depth-scaled Retry-After, and a per-tenant
// rejection count; other tenants are unaffected and the quota frees when
// the outstanding job finishes.
func TestTenantQuotaRejectsAndFrees(t *testing.T) {
	mm := NewMetrics(metrics.NewRegistry())
	release := make(chan struct{})
	m, err := New(Config{
		Executors:  1,
		Metrics:    mm,
		RetryAfter: 2 * time.Second,
		Tenants:    map[string]TenantConfig{"alice": {MaxOutstanding: 2}},
		Executor: runFunc(func(ctx context.Context, r Request) ([]byte, error) {
			select {
			case <-release:
				return []byte("{}"), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	// A failed assertion must still unblock the executor, or Close hangs.
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer unblock()

	sub := func(fasta, tenant string) (Job, error) {
		r := req(fasta)
		r.Tenant = tenant
		return m.Submit(r, true)
	}
	rejected := func(fasta string) *RejectError {
		t.Helper()
		_, err := sub(fasta, "alice")
		var rej *RejectError
		if !errors.As(err, &rej) || rej.Reason != "tenant_quota" {
			t.Fatalf("over-quota submit: err = %v, want tenant_quota rejection", err)
		}
		return rej
	}
	first, err := sub(">a\nMKVL", "alice")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, first.ID, StateRunning)
	second, err := sub(">a2\nMKVV", "alice")
	if err != nil {
		t.Fatal(err)
	}
	// The hint scales with alice's own backlog (one running, one queued:
	// 2s × (1 + 2/2)), not with the global queue, which holds one job and
	// would map to the bare base.
	if rej := rejected(">b\nAAAA"); rej.RetryAfter != 4*time.Second {
		t.Fatalf("RetryAfter = %v, want 4s for two outstanding jobs", rej.RetryAfter)
	}
	if got := mm.TenantRejected.With("alice").Value(); got != 1 {
		t.Fatalf("tenant_rejected_total{alice} = %v, want 1", got)
	}
	// Another tenant is not throttled by alice's quota, and its flood does
	// not inflate alice's hint: she waits for her two jobs, not bob's six.
	var others []Job
	for i := 0; i < 6; i++ {
		j, err := sub(fmt.Sprintf(">c%d\nCCCC", i), "bob")
		if err != nil {
			t.Fatalf("bob's submit rejected: %v", err)
		}
		others = append(others, j)
	}
	if rej := rejected(">b\nAAAA"); rej.RetryAfter != 4*time.Second {
		t.Fatalf("RetryAfter = %v behind a co-tenant's flood, want alice's own 4s", rej.RetryAfter)
	}

	unblock()
	waitState(t, m, first.ID, StateDone)
	waitState(t, m, second.ID, StateDone)
	for _, j := range others {
		waitState(t, m, j.ID, StateDone)
	}

	// Quota is outstanding-based: it frees on completion.
	again, err := sub(">d\nDDDD", "alice")
	if err != nil {
		t.Fatalf("post-completion submit rejected: %v", err)
	}
	waitState(t, m, again.ID, StateDone)
	if got := mm.TenantQueued.With("alice").Value(); got != 0 {
		t.Fatalf("tenant_queued_jobs{alice} = %v after drain, want 0", got)
	}
	if got := mm.TenantRunning.With("alice").Value(); got != 0 {
		t.Fatalf("tenant_running_jobs{alice} = %v after drain, want 0", got)
	}
	if got := mm.TenantServed.With("alice").Value(); got == 0 {
		t.Fatal("tenant_served_residues_total{alice} stayed 0 after two served jobs")
	}
}

// The residue quota rejects a single request that would exceed it.
func TestTenantResidueQuota(t *testing.T) {
	m, err := New(Config{
		Executors:      1,
		TenantDefaults: TenantConfig{MaxOutstandingResidues: 100},
		Executor:       runFunc(func(context.Context, Request) ([]byte, error) { return []byte("{}"), nil }),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	big := Request{QueriesFasta: ">q\nM", Queries: 1, Residues: 101, Tenant: "eve"}
	_, err = m.Submit(big, true)
	var rej *RejectError
	if !errors.As(err, &rej) || rej.Reason != "tenant_quota" {
		t.Fatalf("err = %v, want tenant_quota", err)
	}
}

// Recovery rebuilds tenant accounting from the WAL: a queued job recovered
// with a tenant lands in that tenant's book, not the anonymous bucket.
func TestRecoveryPreservesTenancy(t *testing.T) {
	dir := t.TempDir()
	rec := Job{
		ID:      "j-tenant",
		Key:     "ktenant",
		State:   StateQueued,
		Request: Request{QueriesFasta: ">q\nMKVL", Queries: 1, Residues: 4, Tenant: "alice"},
		Created: time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC),
	}
	line, err := marshalRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, walName), line, 0o644); err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	m, err := New(Config{
		Executors: 1,
		Dir:       dir,
		Executor: runFunc(func(ctx context.Context, r Request) ([]byte, error) {
			select {
			case <-release:
				return []byte("{}"), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	waitState(t, m, "j-tenant", StateRunning)
	m.mu.Lock()
	running := m.book.Running("alice")
	check := m.book.Check()
	m.mu.Unlock()
	if running != 1 {
		t.Fatalf("recovered tenant running = %d, want 1", running)
	}
	if check != nil {
		t.Fatalf("book audit after recovery: %v", check)
	}
	close(release)
	j := waitState(t, m, "j-tenant", StateDone)
	if j.Request.Tenant != "alice" {
		t.Fatalf("recovered job lost its tenant: %+v", j.Request)
	}
}

// TestFloodVersusTrickleFairShare is the fairness contract of the queue
// that serves: a flooding tenant keeps at least twenty jobs queued while a
// trickle tenant pushes one job every `every` pops, and a fixed number of
// executor slots frees the oldest running job before each pop. While both
// tenants are backlogged their weight-normalised service (residues popped
// over weight, counted from the moment both have work) may differ by at
// most one job's cost; a trickle job pushed onto its empty queue pops
// within ceil(1/share) pops; and the book drains to zero and audits clean.
func TestFloodVersusTrickleFairShare(t *testing.T) {
	const (
		slots       = 2
		floodJobs   = 60
		trickleJobs = 12
		residues    = 1 << 15 // dominant DRF dimension at one query per job
	)
	cases := []struct {
		flood, trickle float64 // weights
		every          int     // pops between trickle arrivals
	}{
		{1, 1, 1}, {1, 1, 4},
		{2, 1, 1}, {2, 1, 4},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("drf/%g:%g/every%d", tc.flood, tc.trickle, tc.every)
		t.Run(name, func(t *testing.T) {
			weight := map[string]float64{"flood": tc.flood, "trickle": tc.trickle}
			book := NewTenantBook(map[string]TenantConfig{
				"flood": {Weight: tc.flood}, "trickle": {Weight: tc.trickle},
			}, TenantConfig{})
			q := newQueue(book)
			for i := 0; i < floodJobs; i++ {
				q.push(tjob(fmt.Sprintf("f%d", i), "flood", 0, 1, residues))
			}
			oneJob := residues / math.Min(tc.flood, tc.trickle)
			maxWait := int(math.Ceil((tc.flood + tc.trickle) / tc.trickle))

			var running []*job
			served := map[string]float64{} // since both became backlogged
			pushedAt := map[string]int{}   // trickle jobs that found their queue empty
			pushed, contested := 0, 0
			for pop := 0; pushed < trickleJobs || book.Queued("trickle") > 0; pop++ {
				if pushed < trickleJobs && pop%tc.every == 0 {
					id := fmt.Sprintf("t%d", pushed)
					if book.Queued("trickle") == 0 {
						pushedAt[id] = pop
					}
					q.push(tjob(id, "trickle", 0, 1, residues))
					pushed++
				}
				if book.Queued("flood") < 20 {
					t.Fatalf("pop %d: flood backlog fell to %d; the sweep needs a standing flood", pop, book.Queued("flood"))
				}
				both := book.Queued("trickle") > 0
				if !both {
					served = map[string]float64{}
				}
				if len(running) == slots {
					done := running[0]
					running = running[1:]
					book.Finish(done.Request.Tenant, done.Request.Residues, true)
				}
				j := q.pop()
				running = append(running, j)
				if at, ok := pushedAt[j.ID]; ok && pop-at >= maxWait {
					t.Errorf("%s pushed before pop %d, served at pop %d: waited past %d pops", j.ID, at, pop, maxWait)
				}
				if !both {
					continue
				}
				contested++
				served[j.Request.Tenant] += float64(j.Request.Residues) / weight[j.Request.Tenant]
				if envy := math.Abs(served["flood"] - served["trickle"]); envy > oneJob {
					t.Fatalf("pop %d (%s): normalised service flood %.0f vs trickle %.0f differs by more than one job (%.0f)",
						pop, j.ID, served["flood"], served["trickle"], oneJob)
				}
			}
			if contested < trickleJobs {
				t.Fatalf("only %d contested pops for %d trickle jobs: the tenants never competed", contested, trickleJobs)
			}

			for j := q.pop(); j != nil; j = q.pop() {
				running = append(running, j)
			}
			for _, j := range running {
				book.Finish(j.Request.Tenant, j.Request.Residues, true)
			}
			if err := book.Check(); err != nil {
				t.Fatal(err)
			}
			for tn, want := range map[string]int64{"flood": floodJobs * residues, "trickle": trickleJobs * residues} {
				if n, r := book.Outstanding(tn); n != 0 || r != 0 {
					t.Errorf("%s ends with %d jobs / %d residues outstanding", tn, n, r)
				}
				if got := book.ServedResidues(tn); got != want {
					t.Errorf("%s served %d residues, want %d", tn, got, want)
				}
			}
		})
	}
}

// driveFairQueue runs a randomized interleaving of push/pop/remove/finish
// against the fair queue and its book, checking after every step that (a)
// quota accounting never goes negative, (b) pops respect each tenant's
// priority-then-FIFO order, (c) no job is duplicated or lost, and (d) the
// book's queued counts agree with a shadow model.
func driveFairQueue(t testing.TB, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	tenants := []string{"", "alice", "bob", "carol"}
	cfg := map[string]TenantConfig{
		"alice": {Weight: 2},
		"bob":   {MaxOutstanding: 8},
		"carol": {MaxOutstandingResidues: 1 << 20},
	}
	book := NewTenantBook(cfg, TenantConfig{})
	const maxQueue = 16 // Submit's MaxQueue check
	q := newQueue(book)
	model := map[string][]*job{} // expected within-tenant pop order
	queued := map[*job]bool{}
	var running []*job
	popped := map[string]bool{}
	next := 0
	lastVclock := -1.0

	step := func(op int) {
		switch k := rng.Intn(10); {
		case k < 5: // push
			tn := tenants[rng.Intn(len(tenants))]
			j := tjob(fmt.Sprintf("j%d", next), tn, rng.Intn(4), 1+rng.Intn(100), int64(1+rng.Intn(1<<20)))
			next++
			if rej := book.Admit(tn, j.Request.Residues); rej != nil {
				return
			}
			if q.len() >= maxQueue {
				return // global bound
			}
			q.push(j)
			items := model[tn]
			i := len(items)
			for i > 0 && items[i-1].Request.Priority < j.Request.Priority {
				i--
			}
			items = append(items, nil)
			copy(items[i+1:], items[i:])
			items[i] = j
			model[tn] = items
			queued[j] = true
		case k < 8: // pop
			j := q.pop()
			if j == nil {
				if q.len() != 0 {
					t.Fatalf("seed %d op %d: empty pop but len=%d", seed, op, q.len())
				}
				return
			}
			tn := j.Request.Tenant
			if len(model[tn]) == 0 || model[tn][0] != j {
				t.Fatalf("seed %d op %d: pop %s violated tenant %q priority/FIFO order", seed, op, j.ID, tn)
			}
			model[tn] = model[tn][1:]
			if popped[j.ID] {
				t.Fatalf("seed %d op %d: job %s popped twice", seed, op, j.ID)
			}
			popped[j.ID] = true
			delete(queued, j)
			running = append(running, j)
		case k < 9: // finish a running job
			if len(running) == 0 {
				return
			}
			i := rng.Intn(len(running))
			j := running[i]
			running = append(running[:i], running[i+1:]...)
			book.Finish(j.Request.Tenant, j.Request.Residues, rng.Intn(2) == 0)
		default: // cancel a random queued job
			var cand []*job
			for j := range queued {
				cand = append(cand, j)
			}
			if len(cand) == 0 {
				return
			}
			sort.Slice(cand, func(a, b int) bool { return cand[a].ID < cand[b].ID })
			j := cand[rng.Intn(len(cand))]
			if !q.remove(j) {
				t.Fatalf("seed %d op %d: remove of queued %s failed", seed, op, j.ID)
			}
			delete(queued, j)
			items := model[j.Request.Tenant]
			for i, it := range items {
				if it == j {
					model[j.Request.Tenant] = append(items[:i], items[i+1:]...)
					break
				}
			}
		}
	}
	for op := 0; op < 400; op++ {
		step(op)
		if err := book.Check(); err != nil {
			t.Fatalf("seed %d op %d: %v", seed, op, err)
		}
		for _, tn := range tenants {
			if got, want := book.Queued(tn), len(model[tn]); got != want {
				t.Fatalf("seed %d op %d: book.Queued(%q)=%d, model=%d", seed, op, tn, got, want)
			}
			if p := book.Pass(tn); p < 0 {
				t.Fatalf("seed %d op %d: negative pass for %q", seed, op, tn)
			}
		}
		if book.vclock < lastVclock {
			t.Fatalf("seed %d op %d: vclock went backwards (%v -> %v)", seed, op, lastVclock, book.vclock)
		}
		lastVclock = book.vclock
	}
	// Drain: everything still queued pops exactly once, nothing is lost.
	for j := q.pop(); j != nil; j = q.pop() {
		tn := j.Request.Tenant
		if len(model[tn]) == 0 || model[tn][0] != j {
			t.Fatalf("seed %d drain: pop %s out of order for %q", seed, j.ID, tn)
		}
		model[tn] = model[tn][1:]
		if popped[j.ID] {
			t.Fatalf("seed %d drain: job %s popped twice", seed, j.ID)
		}
		popped[j.ID] = true
	}
	for tn, items := range model {
		if len(items) != 0 {
			t.Fatalf("seed %d: tenant %q lost %d queued jobs", seed, tn, len(items))
		}
	}
	if q.len() != 0 {
		t.Fatalf("seed %d: queue reports %d after drain", seed, q.len())
	}
}

// TestFairQueueProperty sweeps the randomized interleaving across a pinned
// seed matrix.
func TestFairQueueProperty(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		driveFairQueue(t, seed)
	}
}

// FuzzFairQueue lets the fuzzer hunt for interleavings the pinned matrix
// misses; the corpus seeds mirror the property test.
func FuzzFairQueue(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(2))
	f.Add(int64(3))
	f.Fuzz(func(t *testing.T, seed int64) {
		driveFairQueue(t, seed)
	})
}
