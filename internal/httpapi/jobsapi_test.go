package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	hybridsw "repro"
	"repro/internal/dataset"
	"repro/internal/jobs"
	"repro/internal/score"
	"repro/internal/sw"
)

func testServerOpts(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	p := dataset.Profile{Name: "t", NumSeqs: 20, MeanLen: 70, SigmaLn: 0.5, MinLen: 20, MaxLen: 200}
	db := dataset.Generate(p, 42)
	s, err := NewWithOptions("test-db", db, hybridsw.Platform{SSECores: 1, Adjust: true}, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = s.Close(ctx)
	})
	return s, ts
}

func do(t *testing.T, method, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		raw, _ := json.Marshal(body)
		rd = bytes.NewReader(raw)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp, buf.Bytes()
}

func pollJob(t *testing.T, url, id string, want jobs.State) JobView {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var v JobView
	for time.Now().Before(deadline) {
		resp, body := do(t, "GET", url+"/jobs/"+id, nil)
		if resp.StatusCode != 200 {
			t.Fatalf("GET /jobs/%s: %d %s", id, resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		if v.State == want {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s stuck in %s, want %s", id, v.State, want)
	return JobView{}
}

// TestConcurrentSearchesCoalesce: N identical concurrent POST /search calls
// execute the underlying search exactly once — verified through the jobs_*
// metric families — and every caller gets the same body.
func TestConcurrentSearchesCoalesce(t *testing.T) {
	srv, ts := testServerOpts(t, Options{})
	q := srv.db[3]
	payload := SearchRequest{QueriesFasta: fmt.Sprintf(">query1\n%s\n", q.Residues), TopK: 3}

	const n = 6
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := do(t, "POST", ts.URL+"/search", payload)
			if resp.StatusCode != 200 {
				t.Errorf("request %d: %d %s", i, resp.StatusCode, body)
				return
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("response %d differs from response 0", i)
		}
	}
	// NewMetrics is idempotent: this re-attaches to the server's families.
	mm := jobs.NewMetrics(srv.reg)
	if got := mm.CacheMisses.Value(); got != 1 {
		t.Errorf("jobs_cache_misses_total = %v, want 1 (exactly one execution)", got)
	}
	if got := mm.Completed.With("done").Value(); got != 1 {
		t.Errorf("jobs_completed_total{done} = %v, want 1", got)
	}
	if got := mm.Coalesced.Value() + mm.CacheHits.Value(); got != n-1 {
		t.Errorf("coalesced+cache_hits = %v, want %d", got, n-1)
	}
}

func TestJobLifecycle(t *testing.T) {
	srv, ts := testServerOpts(t, Options{})
	q := srv.db[5]
	payload := SearchRequest{QueriesFasta: fmt.Sprintf(">q\n%s\n", q.Residues), TopK: 2, Align: true}

	resp, body := do(t, "POST", ts.URL+"/jobs", payload)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if v.ID == "" || v.Queries != 1 {
		t.Fatalf("job view = %+v", v)
	}

	done := pollJob(t, ts.URL, v.ID, jobs.StateDone)
	if done.Finished == nil || done.ResultBytes == 0 {
		t.Fatalf("done view = %+v", done)
	}

	resp, body = do(t, "GET", ts.URL+"/jobs/"+v.ID+"/result", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("result: %d %s", resp.StatusCode, body)
	}
	var out SearchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 1 || len(out.Results[0].Hits) != 2 {
		t.Fatalf("result payload = %+v", out)
	}
	if out.Results[0].Hits[0].QueryRow == "" {
		t.Error("align=true produced no alignment rows")
	}

	// The job shows up in the listing.
	resp, body = do(t, "GET", ts.URL+"/jobs?state=done", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("list: %d", resp.StatusCode)
	}
	var listing struct {
		Jobs []JobView `json:"jobs"`
	}
	if err := json.Unmarshal(body, &listing); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, j := range listing.Jobs {
		if j.ID == v.ID {
			found = true
		}
	}
	if !found {
		t.Fatalf("job %s missing from listing %s", v.ID, body)
	}

	// An identical submission is a cache hit: 200 immediately, no new run.
	resp, body = do(t, "POST", ts.URL+"/jobs", payload)
	if resp.StatusCode != 200 {
		t.Fatalf("cache-hit submit: %d %s", resp.StatusCode, body)
	}
	var hit JobView
	if err := json.Unmarshal(body, &hit); err != nil {
		t.Fatal(err)
	}
	if !hit.CacheHit || hit.State != jobs.StateDone {
		t.Fatalf("repeat submission = %+v, want cache hit", hit)
	}
}

func TestJobCancelAndNotFound(t *testing.T) {
	_, ts := testServerOpts(t, Options{Jobs: jobs.Config{Executors: -1}}) // queue only
	payload := SearchRequest{QueriesFasta: ">q\nMKVLATGFFDE\n"}

	resp, body := do(t, "POST", ts.URL+"/jobs", payload)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if v.State != jobs.StateQueued {
		t.Fatalf("state = %s, want queued (no executors)", v.State)
	}
	// Result of a queued job: 202 with the view, not an error.
	resp, _ = do(t, "GET", ts.URL+"/jobs/"+v.ID+"/result", nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("result while queued: %d", resp.StatusCode)
	}
	resp, body = do(t, "DELETE", ts.URL+"/jobs/"+v.ID, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("cancel: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if v.State != jobs.StateCanceled {
		t.Fatalf("state after DELETE = %s", v.State)
	}
	resp, _ = do(t, "GET", ts.URL+"/jobs/"+v.ID+"/result", nil)
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("result of cancelled job: %d, want 410", resp.StatusCode)
	}
	// Idempotent DELETE; unknown IDs are 404 everywhere.
	if resp, _ = do(t, "DELETE", ts.URL+"/jobs/"+v.ID, nil); resp.StatusCode != 200 {
		t.Fatalf("re-DELETE: %d", resp.StatusCode)
	}
	if resp, _ = do(t, "GET", ts.URL+"/jobs/nope", nil); resp.StatusCode != 404 {
		t.Fatalf("GET unknown: %d", resp.StatusCode)
	}
	if resp, _ = do(t, "DELETE", ts.URL+"/jobs/nope", nil); resp.StatusCode != 404 {
		t.Fatalf("DELETE unknown: %d", resp.StatusCode)
	}
}

func TestValidationCaps(t *testing.T) {
	_, ts := testServerOpts(t, Options{
		Limits: Limits{MaxQueries: 1, MaxResidues: 100, MaxTopK: 5, MaxAlignLen: 10},
	})
	reason := func(body []byte) string {
		var m map[string]string
		_ = json.Unmarshal(body, &m)
		return m["reason"]
	}
	cases := []struct {
		name   string
		path   string
		body   any
		status int
		reason string
	}{
		{"too many queries", "/search", SearchRequest{QueriesFasta: ">a\nMKVL\n>b\nMKVL\n"}, 422, "too_many_queries"},
		{"too many residues", "/jobs", SearchRequest{QueriesFasta: ">a\n" + string(bytes.Repeat([]byte("M"), 150)) + "\n"}, 422, "too_many_residues"},
		{"top_k too large", "/search", SearchRequest{QueriesFasta: ">a\nMKVL\n", TopK: 6}, 422, "top_k_too_large"},
		{"unknown policy", "/jobs", SearchRequest{QueriesFasta: ">a\nMKVL\n", Policy: "bogus"}, 422, "unknown_policy"},
		{"align too long", "/align", AlignRequest{A: "MKVLATGFFDEMK", B: "MKVL"}, 422, "sequence_too_long"},
		{"empty fasta", "/search", SearchRequest{QueriesFasta: ""}, 400, ""},
	}
	for _, tc := range cases {
		resp, body := do(t, "POST", ts.URL+tc.path, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, body)
			continue
		}
		if tc.reason != "" && reason(body) != tc.reason {
			t.Errorf("%s: reason %q, want %q", tc.name, reason(body), tc.reason)
		}
	}
}

func TestQueueFullGets429(t *testing.T) {
	_, ts := testServerOpts(t, Options{Jobs: jobs.Config{Executors: -1, MaxQueue: 1}})
	resp, body := do(t, "POST", ts.URL+"/jobs", SearchRequest{QueriesFasta: ">a\nMKVL\n"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d %s", resp.StatusCode, body)
	}
	resp, body = do(t, "POST", ts.URL+"/jobs", SearchRequest{QueriesFasta: ">b\nACDE\n"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload submit: %d %s, want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without a Retry-After header")
	}
	var m map[string]string
	_ = json.Unmarshal(body, &m)
	if m["reason"] != "queue_full" {
		t.Errorf("reason = %q", m["reason"])
	}
}

// TestJobsSurviveRestart: a job queued against a durable dir is resumed and
// completed by a fresh server over the same dir — the acceptance demo's
// restart leg.
func TestJobsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	p := dataset.Profile{Name: "t", NumSeqs: 20, MeanLen: 70, SigmaLn: 0.5, MinLen: 20, MaxLen: 200}
	db := dataset.Generate(p, 42)

	// First life: no executors, so the submission stays queued.
	s1, err := NewWithOptions("test-db", db, hybridsw.Platform{SSECores: 1},
		Options{Jobs: jobs.Config{Dir: dir, Executors: -1}})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	payload := SearchRequest{QueriesFasta: fmt.Sprintf(">q\n%s\n", db[2].Residues), TopK: 1}
	resp, body := do(t, "POST", ts1.URL+"/jobs", payload)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s1.Close(ctx); err != nil {
		t.Fatal(err)
	}

	// Second life over the same dir: the queued job must run to done.
	s2, err := NewWithOptions("test-db", db, hybridsw.Platform{SSECores: 1},
		Options{Jobs: jobs.Config{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(func() {
		ts2.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = s2.Close(ctx)
	})
	done := pollJob(t, ts2.URL, v.ID, jobs.StateDone)
	if done.ID != v.ID {
		t.Fatalf("recovered job = %+v", done)
	}
	resp, body = do(t, "GET", ts2.URL+"/jobs/"+v.ID+"/result", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("recovered result: %d %s", resp.StatusCode, body)
	}
	var out SearchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 1 || len(out.Results[0].Hits) != 1 {
		t.Fatalf("recovered result payload = %+v", out)
	}
}

// TestSearchWithCacheDisabled pins that a synchronous search does not read
// its own result back out of the cache: with the cache disabled and no
// durable store, POST /search still answers 200 with the right best hit,
// twice in a row (the second run recomputes).
func TestSearchWithCacheDisabled(t *testing.T) {
	srv, ts := testServerOpts(t, Options{Jobs: jobs.Config{CacheBytes: -1}})
	q := srv.db[5]
	want := 0
	for _, d := range srv.db {
		want = max(want, sw.Score(q.Residues, d.Residues, score.DefaultProtein()))
	}
	for i := 0; i < 2; i++ {
		resp, body := post(t, ts.URL+"/search", SearchRequest{
			QueriesFasta: fmt.Sprintf(">q\n%s\n", q.Residues), TopK: 3,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("search %d: status %d: %s", i, resp.StatusCode, body)
		}
		var out SearchResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if len(out.Results) != 1 || len(out.Results[0].Hits) != 3 {
			t.Fatalf("search %d: results = %+v", i, out)
		}
		if got := out.Results[0].Hits[0].Score; got != want {
			t.Fatalf("search %d: top score %d, reference %d", i, got, want)
		}
	}
}

// TestAsyncResultOverCacheBudget pins that without a jobs dir an async
// job's result outlives the cache: with a budget smaller than the body (so
// trimming would drop a body it did not owe), GET /jobs/{id}/result still
// answers 200.
func TestAsyncResultOverCacheBudget(t *testing.T) {
	srv, ts := testServerOpts(t, Options{Jobs: jobs.Config{CacheBytes: 64}})
	q := srv.db[5]
	resp, body := do(t, "POST", ts.URL+"/jobs", SearchRequest{
		QueriesFasta: fmt.Sprintf(">q\n%s\n", q.Residues), TopK: 3,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if done := pollJob(t, ts.URL, v.ID, jobs.StateDone); done.ResultBytes <= 64 {
		t.Fatalf("result of %d bytes fits the 64-byte cache", done.ResultBytes)
	}
	resp, body = do(t, "GET", ts.URL+"/jobs/"+v.ID+"/result", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d %s", resp.StatusCode, body)
	}
	var out SearchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 1 || len(out.Results[0].Hits) != 3 {
		t.Fatalf("result payload = %+v", out)
	}
}

// TestTrimmedSearchResultGone pins the HTTP face of the byte budget: with
// no jobs dir, a synchronous search's record drops its body once the
// search has answered and the held bodies exceed the budget, so GET
// /jobs/{id}/result on it is 410 while the record itself stays listed.
func TestTrimmedSearchResultGone(t *testing.T) {
	srv, ts := testServerOpts(t, Options{Jobs: jobs.Config{CacheBytes: 1}})
	q := srv.db[5]
	resp, body := post(t, ts.URL+"/search", SearchRequest{
		QueriesFasta: fmt.Sprintf(">q\n%s\n", q.Residues), TopK: 3,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search: %d %s", resp.StatusCode, body)
	}
	resp, body = do(t, "GET", ts.URL+"/jobs?state=done", nil)
	var listing struct {
		Jobs []JobView `json:"jobs"`
	}
	if err := json.Unmarshal(body, &listing); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("list: %d %v", resp.StatusCode, err)
	}
	if len(listing.Jobs) != 1 {
		t.Fatalf("listing = %s, want the one search job", body)
	}
	resp, body = do(t, "GET", ts.URL+"/jobs/"+listing.Jobs[0].ID+"/result", nil)
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("result of a trimmed record: %d %s, want 410", resp.StatusCode, body)
	}
}
