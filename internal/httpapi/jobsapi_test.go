package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	hybridsw "repro"
	"repro/internal/dataset"
	"repro/internal/jobs"
	"repro/internal/prefilter"
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
	if h := out.Results[0].Hits; h[0].QueryRow == "" || h[0].TargetRow == "" || h[1].QueryRow != "" || h[1].TargetRow != "" {
		t.Error("align=true must put alignment rows on the best hit only")
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

// TestBadResidueRejected: a query residue outside the scheme's alphabet
// gets 422 bad_residue, naming the query and the position, on /search and
// /jobs alike, and no job is queued for it.
func TestBadResidueRejected(t *testing.T) {
	_, ts := testServer(t)
	for _, bad := range []string{"1", "J", "O", "U", "."} {
		for _, path := range []string{"/search", "/jobs"} {
			resp, body := do(t, "POST", ts.URL+path, SearchRequest{QueriesFasta: ">ok\nMKVL\n>q7\nACDE" + bad + "FGH\n"})
			var rej map[string]string
			_ = json.Unmarshal(body, &rej)
			if resp.StatusCode != http.StatusUnprocessableEntity || rej["reason"] != "bad_residue" {
				t.Fatalf("%s with %q: %d %s, want 422 bad_residue", path, bad, resp.StatusCode, body)
			}
			if !strings.Contains(rej["error"], `"q7"`) || !strings.Contains(rej["error"], "position 4") {
				t.Errorf("%s with %q: error %q names neither the query nor the position", path, bad, rej["error"])
			}
		}
	}
	resp, body := do(t, "GET", ts.URL+"/jobs", nil)
	var listing struct {
		Jobs []JobView `json:"jobs"`
	}
	if err := json.Unmarshal(body, &listing); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("list: %d %v", resp.StatusCode, err)
	}
	if len(listing.Jobs) != 0 {
		t.Fatalf("%d jobs queued for rejected queries, want 0: %s", len(listing.Jobs), body)
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

// TestTopKCannotGetRoundTheCap: with a top_k cap below the database size,
// neither a negative nor an omitted top_k returns every hit.
func TestTopKCannotGetRoundTheCap(t *testing.T) {
	srv, ts := testServerOpts(t, Options{Limits: Limits{MaxTopK: 5}})
	query := fmt.Sprintf(">q\n%s\n", srv.db[3].Residues)
	resp, body := do(t, "POST", ts.URL+"/search", SearchRequest{QueriesFasta: query, TopK: -1})
	var rej map[string]string
	_ = json.Unmarshal(body, &rej)
	if resp.StatusCode != http.StatusUnprocessableEntity || rej["reason"] != "bad_top_k" {
		t.Errorf("top_k -1: %d %s, want 422 bad_top_k", resp.StatusCode, body)
	}
	resp, body = do(t, "POST", ts.URL+"/search", SearchRequest{QueriesFasta: query})
	if resp.StatusCode != 200 {
		t.Fatalf("omitted top_k: %d %s", resp.StatusCode, body)
	}
	var out SearchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if got := len(out.Results[0].Hits); got != 5 {
		t.Errorf("omitted top_k returned %d hits of %d sequences, want the cap of 5", got, len(srv.db))
	}
}

// TestPolicyIsNotCacheIdentity: the ranking does not depend on the
// scheduling policy, so a repeat that differs only in policy is answered
// by the first job's result.
func TestPolicyIsNotCacheIdentity(t *testing.T) {
	srv, ts := testServerOpts(t, Options{})
	payload := SearchRequest{QueriesFasta: fmt.Sprintf(">q\n%s\n", srv.db[5].Residues), TopK: 3, Policy: "PSS"}
	submit := func() JobView {
		t.Helper()
		resp, body := do(t, "POST", ts.URL+"/jobs", payload)
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			t.Fatalf("submit %s: %d %s", payload.Policy, resp.StatusCode, body)
		}
		var v JobView
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		return v
	}
	first := submit()
	payload.Policy = "SS"
	second := submit()
	if !second.CacheHit && second.ID != first.ID {
		t.Errorf("a repeat differing only in policy neither hit the cache nor coalesced (first %+v, second %+v)", first, second)
	}
}

// TestEquivalentSearchesShareACacheKey: requests that run the same search
// spell it one way in the cache key, so a repeat written differently hits
// the cache or coalesces, while searches that differ keep apart.
func TestEquivalentSearchesShareACacheKey(t *testing.T) {
	srv, ts := testServerOpts(t, Options{})
	submit := func(req SearchRequest) JobView {
		t.Helper()
		resp, body := do(t, "POST", ts.URL+"/jobs", req)
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			t.Fatalf("submit %+v: %d %s", req, resp.StatusCode, body)
		}
		var v JobView
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		return v
	}
	for i, c := range []struct {
		name string
		a, b SearchRequest
		same bool
	}{
		{"empty mode is full", SearchRequest{}, SearchRequest{Mode: "full"}, true},
		{"full mode ignores filter_k", SearchRequest{Mode: "full"}, SearchRequest{Mode: "full", FilterK: 6}, true},
		{"filter_k 0 is the default", SearchRequest{Mode: "filtered"}, SearchRequest{Mode: "filtered", FilterK: prefilter.DefaultK}, true},
		{"filter_margin 0 is the default", SearchRequest{Mode: "filtered"}, SearchRequest{Mode: "filtered", FilterMargin: prefilter.DefaultMargin}, true},
		{"every negative margin is none", SearchRequest{Mode: "filtered", FilterMargin: -1}, SearchRequest{Mode: "filtered", FilterMargin: -5}, true},
		{"no margin is not the default", SearchRequest{Mode: "filtered", FilterMargin: -1}, SearchRequest{Mode: "filtered"}, false},
	} {
		fa := fmt.Sprintf(">q\n%s\n", srv.db[3+i].Residues)
		c.a.QueriesFasta, c.a.TopK = fa, 3
		c.b.QueriesFasta, c.b.TopK = fa, 3
		first := submit(c.a)
		second := submit(c.b)
		if same := first.Key == second.Key; same != c.same {
			t.Errorf("%s: keys %s and %s, want equal %v", c.name, first.Key, second.Key, c.same)
		}
		if c.same && !second.CacheHit && second.ID != first.ID {
			t.Errorf("%s: the repeat neither hit the cache nor coalesced", c.name)
		}
	}
}

// TestPlatformFilterFillsOmittedFields: a filtered request's omitted
// filter_k and filter_margin take the server's Platform.Filter, an
// explicit field wins over it, and an omitted field shares its cache key
// with the same field given explicitly as the platform's value.
func TestPlatformFilterFillsOmittedFields(t *testing.T) {
	p := dataset.Profile{Name: "t", NumSeqs: 20, MeanLen: 70, SigmaLn: 0.5, MinLen: 20, MaxLen: 200}
	db := dataset.Generate(p, 42)
	serve := func(f hybridsw.FilterSpec) string {
		s, err := NewWithOptions("test-db", db, hybridsw.Platform{SSECores: 1, Filter: f}, Options{})
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
		return ts.URL
	}
	custom, plain := serve(hybridsw.FilterSpec{K: 6, Margin: 8}), serve(hybridsw.FilterSpec{})
	key := func(url string, req SearchRequest) string {
		t.Helper()
		resp, body := do(t, "POST", url+"/jobs", req)
		var v JobView
		if err := json.Unmarshal(body, &v); err != nil || resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			t.Fatalf("submit %+v: %d %s", req, resp.StatusCode, body)
		}
		return v.Key
	}
	report := func(url string, req SearchRequest) FilterReport {
		t.Helper()
		resp, body := post(t, url+"/search", req)
		var out SearchResponse
		if err := json.Unmarshal(body, &out); err != nil || resp.StatusCode != http.StatusOK || out.Filter == nil {
			t.Fatalf("search %+v: %d %s", req, resp.StatusCode, body)
		}
		return *out.Filter
	}
	omitted := SearchRequest{QueriesFasta: fmt.Sprintf(">q\n%s\n", db[5].Residues), TopK: 3, Mode: "filtered"}
	platform, defaults := omitted, omitted
	platform.FilterK, platform.FilterMargin = 6, 8
	defaults.FilterK, defaults.FilterMargin = prefilter.DefaultK, prefilter.DefaultMargin
	if a, b := key(custom, omitted), key(custom, platform); a != b {
		t.Errorf("omitted fields keyed %s, the platform's values given explicitly %s", a, b)
	}
	if a, b := key(custom, defaults), key(custom, omitted); a == b {
		t.Errorf("explicit prefilter defaults share the key %s of omitted fields on a server whose platform differs", a)
	}
	if got, want := report(custom, omitted), report(plain, platform); got != want {
		t.Errorf("omitted fields filtered as %+v, the platform's k 6 and margin 8 as %+v", got, want)
	}
	if got, want := report(custom, defaults), report(plain, omitted); got != want {
		t.Errorf("explicit defaults filtered as %+v on the custom server, as %+v on the plain one", got, want)
	}
	if a, b := report(plain, omitted), report(plain, platform); a == b {
		t.Fatalf("k 6 margin 8 and the defaults filter alike (%+v): the test cannot tell them apart", a)
	}
}
