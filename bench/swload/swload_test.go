package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"testing"
	"time"

	hybridsw "repro"
)

// TestMain moves to the repository root: swload's paths (go.mod,
// cmd/swserve, BENCHMARK.json, bench/out) are relative to it.
func TestMain(m *testing.M) {
	if err := os.Chdir("../.."); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// smokeScale shrinks the database to about an eighth (269 sequences).
const smokeScale = 0.0005

// requestListBytes renders the first requests of a workload, schedule
// included, for byte comparison.
func requestListBytes(t *testing.T, w *workload, seed int64) []byte {
	t.Helper()
	db, err := hybridsw.GenerateDatabase(dbProfile, smokeScale, seed)
	if err != nil {
		t.Fatal(err)
	}
	g := newGenerator(w, db, seed)
	var reqs []request
	if w.Rate > 0 {
		reqs = g.arrivals(10 * time.Second)
	} else {
		for cycle := 0; cycle < 5; cycle++ {
			reqs = append(reqs, w.cycle(g)...)
		}
	}
	var buf bytes.Buffer
	for _, r := range reqs {
		fmt.Fprintf(&buf, "%d %s %s %d %s\n", r.Seq, r.Class, r.Tenant, r.Due, r.Body)
	}
	return buf.Bytes()
}

func TestRequestListIsAFunctionOfTheSeed(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		one, again, other := requestListBytes(t, w, 1), requestListBytes(t, w, 1), requestListBytes(t, w, 2)
		if !bytes.Equal(one, again) {
			t.Errorf("%s: seed 1 gave two different request lists", w.Name)
		}
		if bytes.Equal(one, other) {
			t.Errorf("%s: seeds 1 and 2 gave the same request list", w.Name)
		}
	}
}

func TestOpenLoopArrivalsFillTheWindow(t *testing.T) {
	db, err := hybridsw.GenerateDatabase(dbProfile, smokeScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workloadByName("serve_mix")
	if err != nil {
		t.Fatal(err)
	}
	reqs := newGenerator(w, db, 1).arrivals(60 * time.Second)
	if len(reqs) != 240 {
		t.Errorf("%d arrivals in 60 s at %g req/s, want 240", len(reqs), w.Rate)
	}
	classes := map[string]int{}
	for i, r := range reqs {
		classes[r.Class]++
		if r.Due >= 60*time.Second || (i > 0 && r.Due < reqs[i-1].Due) {
			t.Fatalf("arrival %d due at %v: not ascending inside the window", i, r.Due)
		}
	}
	for class, share := range map[string]float64{classShort: 0.7, classMedium: 0.1, classRepeat: 0.2} {
		if got := float64(classes[class]) / float64(len(reqs)); math.Abs(got-share) > 1e-9 {
			t.Errorf("class %s is %.3f of the arrivals, want %.1f", class, got, share)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{8, 50, false}, {39, 50, false}, {40, 75, true}, {99, 75, true}, {100, 90, true},
		{199, 90, true}, {200, 95, true}, {999, 95, true}, {1000, 99, true}, {10000, 99.9, true},
	} {
		if p, ok := tailPercentile(c.n); p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for p, want := range map[float64]float64{0: 1, 50: 3, 75: 4, 100: 5, 90: 4.6} {
		if got := percentile(xs, p); math.Abs(got-want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of no samples is not 0")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client.request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "client.send_lag", Start: 0, End: 10},
		{ID: 3, Parent: 1, Name: "http.roundtrip", Start: 10, End: 100},
		{ID: 4, Parent: 3, Name: "jobs.job", Start: 20, End: 90},
		// Overlapping children count once; a child past its parent is clipped.
		{ID: 5, Parent: 4, Name: "jobs.execute", Start: 30, End: 70},
		{ID: 6, Parent: 4, Name: "jobs.execute", Start: 60, End: 95},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 0, 2: 10, 3: 20, 4: 10, 5: 40, 6: 35} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	if got := selfByName(spans)["jobs.execute"]; math.Abs(got-ms(75)) > 1e-12 {
		t.Errorf("self time of jobs.execute by name = %v ms, want %v", got, ms(75))
	}
}

func TestVarzDelta(t *testing.T) {
	const before = `{
	  "jobs_cache_hits_total": {"type":"counter","help":"h","metrics":[{"value":3}]},
	  "httpapi_requests_total": {"type":"counter","help":"h","metrics":[
	    {"labels":{"class":"2xx","route":"search"},"value":10},
	    {"labels":{"class":"4xx","route":"search"},"value":1}]},
	  "jobs_run_seconds": {"type":"histogram","help":"h","metrics":[{"count":4,"sum":2.5,"buckets":[{"le":"+Inf","count":4}]}]}
	}`
	const after = `{
	  "jobs_cache_hits_total": {"type":"counter","help":"h","metrics":[{"value":8}]},
	  "httpapi_requests_total": {"type":"counter","help":"h","metrics":[
	    {"labels":{"class":"2xx","route":"search"},"value":25},
	    {"labels":{"class":"4xx","route":"search"},"value":1}]},
	  "jobs_run_seconds": {"type":"histogram","help":"h","metrics":[{"count":9,"sum":4.0,"buckets":[{"le":"+Inf","count":9}]}]},
	  "cluster_failovers_total": {"type":"counter","help":"h","metrics":[{"value":2}]}
	}`
	v0, err := parseVarz([]byte(before))
	if err != nil {
		t.Fatal(err)
	}
	v1, err := parseVarz([]byte(after))
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"jobs_cache_hits_total":   5,
		"httpapi_requests_total":  15, // summed over label sets
		"jobs_run_seconds_count":  5,
		"jobs_run_seconds_sum":    1.5,
		"cluster_failovers_total": 2, // a family that appeared during the window
		"no_such_family":          0,
	} {
		if got := v1.delta(v0, name); got != want {
			t.Errorf("delta(%s) = %v, want %v", name, got, want)
		}
	}
	if _, err := parseVarz([]byte("not json")); err == nil {
		t.Error("parseVarz accepted garbage")
	}
}

func TestProcParsers(t *testing.T) {
	stat := []byte("4242 (sw serve) x) S 1 4242 4242 0 -1 4194560 2000 0 0 0 1234 66 0 0 20 0 5 0 100 1000 200 18446744073709551615\n")
	if cpu, err := parseProcStat(stat); err != nil || cpu != 13.0 {
		t.Errorf("parseProcStat = %v, %v; want 13 s", cpu, err)
	}
	if _, err := parseProcStat([]byte("garbage")); err == nil {
		t.Error("parseProcStat accepted garbage")
	}
	status := []byte("Name:\tswserve\nVmPeak:\t  900000 kB\nVmHWM:\t   20480 kB\nVmRSS:\t   10000 kB\n")
	if mb, err := parseVmHWM(status); err != nil || mb != 20 {
		t.Errorf("parseVmHWM = %v, %v; want 20 MB", mb, err)
	}
	if _, err := parseVmHWM([]byte("Name:\tx\n")); err == nil {
		t.Error("parseVmHWM accepted a status without VmHWM")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "gcups", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		m             metricDef
		before, after float64
		want          string
	}{
		{lower, 100, 109, "within"}, {lower, 100, 111, "worse"}, {lower, 100, 89, "better"},
		{higher, 1.0, 0.91, "within"}, {higher, 1.0, 0.89, "worse"}, {higher, 1.0, 1.2, "better"},
	} {
		if _, got := verdict(c.m, c.before, c.after); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.m.Name, c.before, c.after, got, c.want)
		}
	}
}

// TestManifestMatchesTheCode keeps BENCHMARK.json and the metric lists
// this command prints in step.
func TestManifestMatchesTheCode(t *testing.T) {
	man, err := readManifest("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code has %d", len(man.Workloads), len(workloads))
	}
	for i, w := range man.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the code", i, w.Name, workloads[i].Name)
		}
	}
	same := func(kind string, listed, coded []metricDef) {
		if len(listed) != len(coded) {
			t.Fatalf("BENCHMARK.json lists %d %s metrics, the code has %d", len(listed), kind, len(coded))
		}
		for i, m := range listed {
			c := coded[i]
			if m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better {
				t.Errorf("%s metric %d is %+v in BENCHMARK.json, %+v in the code", kind, i, m, c)
			}
		}
	}
	same("end_to_end", man.EndToEnd, endToEnd)
	same("per_layer", man.PerLayer, perLayer)
	for _, m := range man.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// TestSmoke runs every workload end to end, traced, on a small database
// and a sub-second window: real swserve child, real requests, verification
// and the layer replays. It checks only that nothing failed and every
// metric was produced, never a timing.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts swserve child processes")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	bin, err := buildServer(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.Name, func(t *testing.T) {
			cfg := config{seed: 1, seconds: 0.5, trace: true, scale: smokeScale, bin: bin}
			res, err := runWorkload(ctx, cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Samples == 0 {
				t.Fatalf("%d of %d requests failed (%d verified): %v", res.Failed, res.Attempted, res.Samples, res.Failures)
			}
			for _, m := range endToEnd {
				if v := res.EndToEnd[m.Name]; !(v > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, v)
				}
			}
			for _, m := range perLayer {
				if v, ok := res.PerLayer[m.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("per-layer metric %s = %v (present %v)", m.Name, v, ok)
				}
			}
			if res.PerLayer["farrar.mcups"] <= 0 || res.PerLayer["client.samples"] <= 0 {
				t.Errorf("farrar.mcups %v, client.samples %v", res.PerLayer["farrar.mcups"], res.PerLayer["client.samples"])
			}
		})
	}
}
