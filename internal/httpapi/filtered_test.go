package httpapi

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"repro/internal/jobs"
)

// TestSearchFilteredMode runs the same database-member query through both
// pipelines over HTTP: the filtered ranking must match the full scan's for
// the query's source sequence, and the response must carry the filter's
// accounting.
func TestSearchFilteredMode(t *testing.T) {
	srv, ts := testServer(t)
	q := srv.db[5]
	fastaQ := fmt.Sprintf(">q\n%s\n", q.Residues)

	resp, body := post(t, ts.URL+"/search", SearchRequest{QueriesFasta: fastaQ, TopK: 3})
	if resp.StatusCode != 200 {
		t.Fatalf("full: status %d: %s", resp.StatusCode, body)
	}
	var full SearchResponse
	if err := json.Unmarshal(body, &full); err != nil {
		t.Fatal(err)
	}

	resp, body = post(t, ts.URL+"/search", SearchRequest{
		QueriesFasta: fastaQ, TopK: 3, Mode: "filtered",
	})
	if resp.StatusCode != 200 {
		t.Fatalf("filtered: status %d: %s", resp.StatusCode, body)
	}
	var filt SearchResponse
	if err := json.Unmarshal(body, &filt); err != nil {
		t.Fatal(err)
	}
	if filt.Filter == nil {
		t.Fatal("filtered response has no filter report")
	}
	if full.Filter != nil {
		t.Fatal("full-scan response has a filter report")
	}
	if filt.Filter.RescoredCells >= filt.Filter.FullScanCells {
		t.Fatalf("rescored %d >= full-scan %d cells", filt.Filter.RescoredCells, filt.Filter.FullScanCells)
	}
	if sel := filt.Filter.Selectivity; sel <= 0 || sel >= 1 {
		t.Fatalf("selectivity %v not in (0,1)", sel)
	}
	// The query is a database member: its self-hit survives the filter, and
	// filtered scores never exceed the exact ones.
	fb, gb := full.Results[0].Hits[0], filt.Results[0].Hits[0]
	if gb.SeqID != fb.SeqID || gb.Score != fb.Score {
		t.Fatalf("best hit: full {%s %d}, filtered {%s %d}", fb.SeqID, fb.Score, gb.SeqID, gb.Score)
	}
	for i, h := range filt.Results[0].Hits {
		if h.Score > full.Results[0].Hits[i].Score {
			t.Errorf("hit %d: filtered score %d exceeds full %d", i, h.Score, full.Results[0].Hits[i].Score)
		}
	}
}

func TestSearchUnknownMode(t *testing.T) {
	_, ts := testServer(t)
	resp, body := post(t, ts.URL+"/search", SearchRequest{
		QueriesFasta: ">q\nMKVLATGFFDE\n", Mode: "telepathic",
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out map[string]string
	json.Unmarshal(body, &out)
	if out["reason"] != "unknown_mode" {
		t.Fatalf("reason %q", out["reason"])
	}
}

// TestFilteredModeCacheIsolation: the same FASTA under different modes must
// produce different cache identities — a filtered result can never answer a
// full-scan request.
func TestFilteredModeCacheIsolation(t *testing.T) {
	srv, ts := testServer(t)
	fastaQ := fmt.Sprintf(">q\n%s\n", srv.db[2].Residues)

	submit := func(mode string) JobView {
		resp, body := post(t, ts.URL+"/jobs", SearchRequest{QueriesFasta: fastaQ, Mode: mode})
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			t.Fatalf("mode %q: status %d: %s", mode, resp.StatusCode, body)
		}
		var v JobView
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		return v
	}
	fullJob := submit("")
	filtJob := submit("filtered")
	if fullJob.Key == filtJob.Key {
		t.Fatalf("full and filtered share cache key %s", fullJob.Key)
	}
	if filtJob.Mode != "filtered" {
		t.Fatalf("job view mode %q", filtJob.Mode)
	}
	for _, id := range []string{fullJob.ID, filtJob.ID} {
		if _, err := srv.jobs.Wait(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
	job, err := srv.jobs.Get(filtJob.ID)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != jobs.StateDone {
		t.Fatalf("filtered job ended %s: %s", job.State, job.Error)
	}
	// The finished job retains its per-shard progress: every shard done,
	// its finished cells at its whole budget.
	if len(job.Shards) == 0 {
		t.Fatal("filtered job has no shard progress")
	}
	for _, sh := range job.Shards {
		if sh.State != "done" || sh.TotalCells == 0 || sh.Cells != sh.TotalCells {
			t.Fatalf("shard progress %+v", sh)
		}
	}
}
