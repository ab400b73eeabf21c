package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	hybridsw "repro"
	"repro/internal/dataset"
	"repro/internal/score"
	"repro/internal/sw"
)

func testServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	p := dataset.Profile{Name: "t", NumSeqs: 20, MeanLen: 70, SigmaLn: 0.5, MinLen: 20, MaxLen: 200}
	db := dataset.Generate(p, 42)
	s, err := New("test-db", db, hybridsw.Platform{SSECores: 1, Adjust: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp, buf.Bytes()
}

func TestHealthAndDatabase(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/database")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("database: %v %v", resp.StatusCode, err)
	}
	var info map[string]any
	json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if info["name"] != "test-db" || info["sequences"].(float64) != 20 {
		t.Errorf("database info = %v", info)
	}
}

func TestSearchEndpoint(t *testing.T) {
	srv, ts := testServer(t)
	// Build a query from database content so a strong hit exists.
	q := srv.db[3] // a database member: guaranteed strong self-hit
	fastaQ := fmt.Sprintf(">query1\n%s\n", q.Residues)

	resp, body := post(t, ts.URL+"/search", SearchRequest{
		QueriesFasta: fastaQ, TopK: 3, Align: true,
	})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out SearchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 1 || len(out.Results[0].Hits) != 3 {
		t.Fatalf("results = %+v", out)
	}
	best := out.Results[0].Hits[0]
	// Verify the reported score against the reference.
	want := 0
	for _, d := range srv.db {
		if sc := sw.Score(q.Residues, d.Residues, score.DefaultProtein()); sc > want {
			want = sc
		}
	}
	if best.Score != want {
		t.Errorf("top score %d, reference %d", best.Score, want)
	}
	if best.EValue == nil || *best.EValue > 1e-3 {
		t.Errorf("strong hit EValue = %v (score %d)", *best.EValue, best.Score)
	}
	// align=true puts the one traceback of the search, the best hit's, on
	// the best hit and on no other.
	for _, d := range srv.db {
		if d.ID == best.SeqID {
			a := sw.AlignLinearSpace(q.Residues, d.Residues, score.DefaultProtein())
			if best.QueryRow != string(a.QueryRow) || best.TargetRow != string(a.TargetRow) {
				t.Errorf("alignment rows %q/%q, want %q/%q", best.QueryRow, best.TargetRow, a.QueryRow, a.TargetRow)
			}
		}
	}
	if best.QueryRow == "" {
		t.Error("alignment rows missing despite align=true")
	}
	for _, h := range out.Results[0].Hits[1:] {
		if h.QueryRow != "" || h.TargetRow != "" {
			t.Errorf("hit %s carries alignment rows", h.SeqID)
		}
	}
	if out.GCUPS <= 0 || out.Database != "test-db" {
		t.Errorf("metadata: %+v", out)
	}
}

func TestSearchEndpointErrors(t *testing.T) {
	_, ts := testServer(t)
	if resp, _ := post(t, ts.URL+"/search", SearchRequest{QueriesFasta: ""}); resp.StatusCode != 400 {
		t.Errorf("empty queries: status %d", resp.StatusCode)
	}
	if resp, _ := post(t, ts.URL+"/search", SearchRequest{QueriesFasta: "garbage no header"}); resp.StatusCode != 400 {
		t.Errorf("bad FASTA: status %d", resp.StatusCode)
	}
	raw, _ := http.Post(ts.URL+"/search", "application/json", strings.NewReader("{not json"))
	if raw.StatusCode != 400 {
		t.Errorf("bad JSON: status %d", raw.StatusCode)
	}
	raw.Body.Close()
	// An unknown policy is caught by validation (422), not at run time.
	if resp, _ := post(t, ts.URL+"/search", SearchRequest{QueriesFasta: ">q\nACD\n", Policy: "bogus"}); resp.StatusCode != 422 {
		t.Errorf("bad policy: status %d", resp.StatusCode)
	}
}

func TestAlignEndpoint(t *testing.T) {
	_, ts := testServer(t)
	resp, body := post(t, ts.URL+"/align", AlignRequest{A: "mkvlatgll", B: "MKVLAGLL"})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	checkAlignment(t, body, []byte("MKVLATGLL"), []byte("MKVLAGLL"))
	if resp, _ := post(t, ts.URL+"/align", AlignRequest{A: "", B: "AC"}); resp.StatusCode != 400 {
		t.Errorf("missing sequence: status %d", resp.StatusCode)
	}
}

// checkAlignment asserts that an /align reply of a against b carries the
// optimal local score and rows that rescore to it. It pins no rows: among
// equally good alignments any one may come back.
func checkAlignment(t *testing.T, body, a, b []byte) {
	t.Helper()
	var out AlignResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	s := score.DefaultProtein()
	if want := sw.Score(a, b, s); out.Score != want {
		t.Errorf("score %d, want %d", out.Score, want)
	}
	rows := sw.Alignment{QueryRow: []byte(out.QueryRow), TargetRow: []byte(out.TargetRow)}
	if got, err := rows.Rescore(s); err != nil || got != out.Score {
		t.Errorf("rows rescore to (%d, %v), want %d", got, err, out.Score)
	}
	if out.QueryRow == "" || out.Identity <= 0 {
		t.Errorf("response = %+v", out)
	}
}

// TestAlignMemoryIsLinear: /align of two 3 000-residue sequences stays in
// linear space. The full-matrix aligner allocates about 220 MB for this
// request, and at MaxAlignLen on both sides about 240 GB; the bound leaves
// room for the server's own allocations.
func TestAlignMemoryIsLinear(t *testing.T) {
	_, ts := testServer(t)
	rng := rand.New(rand.NewSource(7))
	residues := func(n int) []byte {
		const alphabet = "ACDEFGHIKLMNPQRSTVWY"
		b := make([]byte, n)
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return b
	}
	a, b := residues(3000), residues(3000)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resp, body := post(t, ts.URL+"/align", AlignRequest{A: string(a), B: string(b)})
	runtime.ReadMemStats(&after)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	const bound = 16 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Errorf("a 3000 x 3000 /align allocated %.1f MB, want under %d MB", float64(got)/(1<<20), bound>>20)
	}
	checkAlignment(t, body, a, b)
}

// TestAlignRejectsUnknownFields pins /align as a local aligner: a body that
// asks for anything else, such as the "global" flag, is refused with 400
// instead of being answered with a local alignment.
func TestAlignRejectsUnknownFields(t *testing.T) {
	_, ts := testServer(t)
	for _, body := range []map[string]any{
		{"a": "MKVLATGLL", "b": "MKVLAGLL", "global": true},
		{"a": "MKVLATGLL", "b": "MKVLAGLL", "global": false},
		{"a": "MKVLATGLL", "b": "MKVLAGLL", "mode": "semiglobal"},
	} {
		resp, out := post(t, ts.URL+"/align", body)
		if resp.StatusCode != 400 || !strings.Contains(string(out), "unknown field") {
			t.Errorf("%v: status %d: %s", body, resp.StatusCode, out)
		}
	}
}

func TestMethodRouting(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Get(ts.URL + "/search")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed && resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /search: status %d", resp.StatusCode)
	}
}

func TestNewRejectsEmptyDB(t *testing.T) {
	if _, err := New("x", nil, hybridsw.Platform{}); err == nil {
		t.Error("empty database accepted")
	}
}
