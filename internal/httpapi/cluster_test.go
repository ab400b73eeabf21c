package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	hybridsw "repro"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/jobs"
	"repro/internal/metrics"
)

// clusterServer builds a server routed onto a sharded fleet over the given
// database, returning the fleet for fault injection. Fleet and server share
// one registry, as cmd/swserve wires them.
func clusterServer(t *testing.T, db []*hybridsw.Sequence, shards, replicas int) (*Server, *httptest.Server, *cluster.Fleet) {
	t.Helper()
	reg := metrics.NewRegistry()
	fleet, err := cluster.New(cluster.Config{DB: db, Shards: shards, Replicas: replicas, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewWithOptions("test-db", db, hybridsw.Platform{SSECores: 1, Registry: reg}, Options{Fleet: fleet})
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
	return s, ts, fleet
}

// TestReadyz covers the readiness probe on both backends: backend kind and
// shard health in the payload, 503 while draining, and 503 the moment any
// shard loses its last replica.
func TestReadyz(t *testing.T) {
	// Local backend: ready, one shard holding the platform's engines, drain
	// flips it to 503.
	srv, ts := testServerOpts(t, Options{})
	resp, body := do(t, "GET", ts.URL+"/readyz", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("local readyz: %d %s", resp.StatusCode, body)
	}
	var rr ReadyResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if !rr.Ready || rr.Backend != jobs.BackendLocal || len(rr.Shards) != 1 || rr.Shards[0].Live != 1 {
		t.Fatalf("local readyz payload = %+v", rr)
	}
	srv.SetDraining(true)
	if resp, _ = do(t, "GET", ts.URL+"/readyz", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz: %d, want 503", resp.StatusCode)
	}
	srv.SetDraining(false)

	// Cluster backend: per-shard health, 503 once a shard has no replica.
	p := dataset.Profile{Name: "t", NumSeqs: 20, MeanLen: 70, SigmaLn: 0.5, MinLen: 20, MaxLen: 200}
	db := dataset.Generate(p, 42)
	_, cts, fleet := clusterServer(t, db, 2, 1)
	resp, body = do(t, "GET", cts.URL+"/readyz", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("cluster readyz: %d %s", resp.StatusCode, body)
	}
	rr = ReadyResponse{}
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if !rr.Ready || rr.Backend != jobs.BackendCluster || len(rr.Shards) != 2 {
		t.Fatalf("cluster readyz payload = %+v", rr)
	}
	for i, sh := range rr.Shards {
		if sh.Shard != i || sh.Live != 1 || sh.Replicas != 1 || sh.Sequences == 0 {
			t.Errorf("shard health %d = %+v", i, sh)
		}
	}
	if err := fleet.KillReplica(1, 0); err != nil {
		t.Fatal(err)
	}
	resp, body = do(t, "GET", cts.URL+"/readyz", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with dead shard: %d %s, want 503", resp.StatusCode, body)
	}
	rr = ReadyResponse{}
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Ready || rr.Draining || rr.Shards[1].Live != 0 {
		t.Fatalf("dead-shard readyz payload = %+v", rr)
	}
}

// TestClusterBackendServing is the end-to-end acceptance check: the same
// POST /search against a local server and a cluster server produces
// identical results, POST /jobs stamps the backend and exposes per-shard
// progress, and a replica killed while the job is in flight does not change
// the outcome.
func TestClusterBackendServing(t *testing.T) {
	p := dataset.Profile{Name: "t", NumSeqs: 60, MeanLen: 120, SigmaLn: 0.5, MinLen: 40, MaxLen: 400}
	db := dataset.Generate(p, 9)
	var fa strings.Builder
	for _, q := range []int{3, 17, 31, 44} {
		fmt.Fprintf(&fa, ">q%d\n%s\n", q, db[q].Residues)
	}
	payload := SearchRequest{QueriesFasta: fa.String(), TopK: 5, Align: true}

	_, localTS := func() (*Server, *httptest.Server) {
		s, err := NewWithOptions("test-db", db, hybridsw.Platform{SSECores: 1}, Options{})
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
	}()
	_, clusterTS, fleet := clusterServer(t, db, 3, 2)

	resp, localBody := do(t, "POST", localTS.URL+"/search", payload)
	if resp.StatusCode != 200 {
		t.Fatalf("local search: %d %s", resp.StatusCode, localBody)
	}
	var localOut SearchResponse
	if err := json.Unmarshal(localBody, &localOut); err != nil {
		t.Fatal(err)
	}

	for _, mode := range []string{"full", "filtered"} {
		mp := payload
		mp.Mode = mode
		// Without alignment rows: a full search with them is payload's own
		// key, which the async leg below must not find cached.
		mp.Align = false
		lresp, lbody := do(t, "POST", localTS.URL+"/search", mp)
		cresp, cbody := do(t, "POST", clusterTS.URL+"/search", mp)
		if lresp.StatusCode != 200 || cresp.StatusCode != 200 {
			t.Fatalf("mode %s: local %d cluster %d", mode, lresp.StatusCode, cresp.StatusCode)
		}
		var lout, cout SearchResponse
		if err := json.Unmarshal(lbody, &lout); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(cbody, &cout); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(lout.Results, cout.Results) {
			t.Errorf("mode %s: cluster results diverge from local\n got %+v\nwant %+v", mode, cout.Results, lout.Results)
		}
	}

	// Async leg with a mid-flight crash: submit, kill a replica as soon as a
	// shard reports progress (or right away if the scan outruns the poll),
	// and the job must still complete with the local backend's results.
	resp, body := do(t, "POST", clusterTS.URL+"/jobs", payload)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cluster submit: %d %s", resp.StatusCode, body)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if v.Backend != jobs.BackendCluster {
		t.Fatalf("job backend = %q, want cluster", v.Backend)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		_, jb := do(t, "GET", clusterTS.URL+"/jobs/"+v.ID, nil)
		var jv JobView
		if err := json.Unmarshal(jb, &jv); err != nil {
			t.Fatal(err)
		}
		if jv.State.Terminal() {
			break
		}
		progressed := false
		for _, sh := range jv.Shards {
			if sh.Cells > 0 {
				progressed = true
			}
		}
		if progressed {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := fleet.KillReplica(0, 0); err != nil {
		t.Fatal(err)
	}
	done := pollJob(t, clusterTS.URL, v.ID, jobs.StateDone)
	if done.Backend != jobs.BackendCluster {
		t.Errorf("done backend = %q", done.Backend)
	}
	if len(done.Shards) != 3 {
		t.Errorf("done view carries %d shard entries, want 3 (%+v)", len(done.Shards), done.Shards)
	}
	for _, sh := range done.Shards {
		if sh.State != "done" {
			t.Errorf("shard %d finished in state %q (%+v)", sh.Shard, sh.State, sh)
		}
	}
	resp, body = do(t, "GET", clusterTS.URL+"/jobs/"+v.ID+"/result", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("cluster result: %d %s", resp.StatusCode, body)
	}
	var clusterOut SearchResponse
	if err := json.Unmarshal(body, &clusterOut); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(clusterOut.Results, localOut.Results) {
		t.Errorf("post-crash cluster results diverge from local\n got %+v\nwant %+v", clusterOut.Results, localOut.Results)
	}
	if resp, body := do(t, "GET", clusterTS.URL+"/readyz", nil); resp.StatusCode != 200 {
		t.Errorf("/readyz %d %s: the fleet should stay ready on the surviving replicas", resp.StatusCode, body)
	}
}

// TestClusterEngineMetrics pins the engine-side families on the cluster
// backend: after one full and one filtered search, /metrics must carry the
// kernel's overflow-ladder counts and the prefilter's scan accounting, which
// only the replica engines can publish.
func TestClusterEngineMetrics(t *testing.T) {
	p := dataset.Profile{Name: "t", NumSeqs: 30, MeanLen: 90, SigmaLn: 0.5, MinLen: 30, MaxLen: 300}
	db := dataset.Generate(p, 5)
	_, ts, _ := clusterServer(t, db, 2, 2)
	payload := SearchRequest{QueriesFasta: fmt.Sprintf(">q\n%s\n", db[7].Residues), TopK: 3}
	for _, mode := range []string{"full", "filtered"} {
		payload.Mode = mode
		if resp, body := do(t, "POST", ts.URL+"/search", payload); resp.StatusCode != 200 {
			t.Fatalf("%s search: %d %s", mode, resp.StatusCode, body)
		}
	}
	_, expo := do(t, "GET", ts.URL+"/metrics", nil)
	for _, series := range []string{
		`farrar_fallback_total{tier="8bit"}`,
		"prefilter_patterns_compiled_total",
		"prefilter_residues_scanned_total",
		"prefilter_windows_emitted_total",
	} {
		var value float64
		for _, line := range strings.Split(string(expo), "\n") {
			if rest, ok := strings.CutPrefix(line, series+" "); ok {
				fmt.Sscan(rest, &value)
			}
		}
		if value <= 0 {
			t.Errorf("%s = %v after a full and a filtered search, want > 0", series, value)
		}
	}
}

// TestSearchClientDisconnect: a client that goes away in the middle of a
// POST /search leaves its job canceled, and the fleet stops every
// goroutine the search started.
func TestSearchClientDisconnect(t *testing.T) {
	p := dataset.Profile{Name: "t", NumSeqs: 400, MeanLen: 300, SigmaLn: 0.4, MinLen: 100, MaxLen: 900}
	db := dataset.Generate(p, 9)
	s, ts, _ := clusterServer(t, db, 2, 2)
	baseline := runtime.NumGoroutine()

	var fa strings.Builder
	for i := 0; i < 4; i++ {
		fmt.Fprintf(&fa, ">q%d\n%s\n", i, db[10*i].Residues)
	}
	raw, _ := json.Marshal(SearchRequest{QueriesFasta: fa.String(), TopK: 3})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/search", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Transport: &http.Transport{}}
	returned := make(chan error, 1)
	go func() {
		resp, err := client.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		returned <- err
	}()

	// Disconnect once the job's shards report progress.
	var id string
	deadline := time.Now().Add(10 * time.Second)
	for id == "" && time.Now().Before(deadline) {
		for _, j := range s.jobs.List() {
			for _, sh := range j.Shards {
				if j.State == jobs.StateRunning && sh.Cells > 0 {
					id = j.ID
				}
			}
		}
		time.Sleep(time.Millisecond)
	}
	if id == "" {
		t.Fatal("the search never reported progress")
	}
	cancel()
	if err := <-returned; err == nil {
		t.Fatal("the search answered before the client went away; make it longer")
	}
	client.CloseIdleConnections()

	for time.Now().Before(deadline) {
		if j, err := s.jobs.Get(id); err == nil && j.State.Terminal() {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if j, err := s.jobs.Get(id); err != nil || j.State != jobs.StateCanceled {
		t.Fatalf("job after the disconnect: %+v, %v; want canceled", j, err)
	}
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("%d goroutines after the disconnect, baseline %d", n, baseline)
	}
}
