package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(2.5)
	if got := c.Value(); got != 3.5 {
		t.Errorf("counter = %v, want 3.5", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("negative counter Add did not panic")
		}
	}()
	var g Gauge
	g.Set(7)
	g.Add(-2)
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 5 {
		t.Errorf("gauge = %v, want 5", got)
	}
	c.Add(-1)
}

// TestHistogramBucketBoundaries pins the le (inclusive upper bound)
// semantics: a value equal to a bound lands in that bound's bucket, and
// values beyond the last bound land in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.0001, 2, 2.5, 5, 5.0001, 100} {
		h.Observe(v)
	}
	// buckets: le=1 gets {0.5, 1}; le=2 gets {1.0001, 2}; le=5 gets {2.5, 5};
	// +Inf gets {5.0001, 100}.
	want := []uint64{2, 2, 2, 2}
	got := h.BucketCounts()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
	if h.Count() != 8 {
		t.Errorf("count = %d, want 8", h.Count())
	}
	if diff := h.Sum() - 117.0002; math.Abs(diff) > 1e-9 {
		t.Errorf("sum = %v, want 117.0002", h.Sum())
	}
}

func TestHistogramValidation(t *testing.T) {
	for _, bad := range [][]float64{nil, {}, {1, 1}, {2, 1}, {1, math.Inf(1)}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("buckets %v accepted", bad)
				}
			}()
			NewHistogram(bad)
		}()
	}
}

// TestPrometheusGolden locks the full exposition byte-for-byte: family
// ordering, HELP/TYPE headers, label rendering, cumulative histogram
// buckets, _sum/_count.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_jobs_total", "Jobs processed.").Add(3)
	v := r.CounterVec("test_errors_total", "Errors by kind.", "kind")
	v.With("io").Inc()
	v.With("decode").Add(2)
	r.Gauge("test_queue_depth", "Tasks waiting.").Set(7)
	h := r.Histogram("test_latency_seconds", "Request latency.", []float64{0.25, 1})
	h.Observe(0.25) // exactly representable so _sum renders exactly
	h.Observe(0.5)
	h.Observe(2)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_errors_total Errors by kind.
# TYPE test_errors_total counter
test_errors_total{kind="decode"} 2
test_errors_total{kind="io"} 1
# HELP test_jobs_total Jobs processed.
# TYPE test_jobs_total counter
test_jobs_total 3
# HELP test_latency_seconds Request latency.
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{le="0.25"} 1
test_latency_seconds_bucket{le="1"} 2
test_latency_seconds_bucket{le="+Inf"} 3
test_latency_seconds_sum 2.75
test_latency_seconds_count 3
# HELP test_queue_depth Tasks waiting.
# TYPE test_queue_depth gauge
test_queue_depth 7
`
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestHandlerContentType(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_hits_total", "hits")
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != ContentType {
		t.Errorf("Content-Type = %q, want %q", ct, ContentType)
	}
	if !strings.Contains(rec.Body.String(), "test_hits_total 0") {
		t.Errorf("body missing counter:\n%s", rec.Body.String())
	}
}

func TestVarzJSON(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("test_ops_total", "ops", "kind").With("read").Add(4)
	r.Histogram("test_wait_seconds", "wait", []float64{1}).Observe(0.5)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out map[string]struct {
		Type    string `json:"type"`
		Metrics []struct {
			Labels  map[string]string `json:"labels"`
			Value   *float64          `json:"value"`
			Count   *uint64           `json:"count"`
			Buckets []struct {
				LE    string `json:"le"`
				Count uint64 `json:"count"`
			} `json:"buckets"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("varz is not valid JSON: %v\n%s", err, buf.String())
	}
	ops := out["test_ops_total"]
	if ops.Type != "counter" || len(ops.Metrics) != 1 || *ops.Metrics[0].Value != 4 || ops.Metrics[0].Labels["kind"] != "read" {
		t.Errorf("test_ops_total = %+v", ops)
	}
	wait := out["test_wait_seconds"]
	if wait.Type != "histogram" || *wait.Metrics[0].Count != 1 || len(wait.Metrics[0].Buckets) != 2 {
		t.Errorf("test_wait_seconds = %+v", wait)
	}
	if last := wait.Metrics[0].Buckets[1]; last.LE != "+Inf" || last.Count != 1 {
		t.Errorf("+Inf bucket = %+v", last)
	}
}

func TestNameConvention(t *testing.T) {
	good := []struct {
		kind Kind
		name string
	}{
		{KindCounter, "sched_tasks_completed_total"},
		{KindGauge, "sched_ready_tasks"},
		{KindGauge, "sched_slave_rate_gcups"},
		{KindHistogram, "wire_call_seconds"},
		{KindHistogram, "http_request_bytes"},
	}
	for _, g := range good {
		if err := CheckName(g.kind, g.name); err != nil {
			t.Errorf("CheckName(%s, %q) = %v, want ok", g.kind, g.name, err)
		}
	}
	bad := []struct {
		kind Kind
		name string
	}{
		{KindCounter, "tasks"},                 // no subsystem prefix
		{KindCounter, "sched_tasks_completed"}, // counter without _total
		{KindGauge, "sched_tasks_total"},       // gauge with _total
		{KindHistogram, "wire_call_latency"},   // histogram without unit
		{KindCounter, "Sched_Tasks_Total"},     // uppercase
		{KindCounter, "sched__tasks_total"},    // empty segment
		{Kind("meter"), "sched_tasks_total"},   // unknown kind
	}
	for _, b := range bad {
		if err := CheckName(b.kind, b.name); err == nil {
			t.Errorf("CheckName(%s, %q) accepted", b.kind, b.name)
		}
	}
}

func TestRegistryPanicsOnBadName(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Error("bad counter name accepted")
		}
	}()
	r.Counter("badname", "no prefix")
}

func TestRegistryIdempotentAndConflicts(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("test_items_total", "items")
	b := r.Counter("test_items_total", "items")
	if a != b {
		t.Error("same-signature re-registration returned a different counter")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Error("handles do not share state")
	}
	defer func() {
		if recover() == nil {
			t.Error("kind conflict accepted")
		}
	}()
	r.GaugeVec("test_items_total", "items", "kind")
}

func TestWithArityPanics(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_calls_total", "calls", "kind")
	defer func() {
		if recover() == nil {
			t.Error("wrong label arity accepted")
		}
	}()
	v.With("a", "b")
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("test_weird_total", "weird", "name").With("a\"b\\c\nd").Inc()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `name="a\"b\\c\nd"`) {
		t.Errorf("escaping wrong:\n%s", buf.String())
	}
}

// TestRegistryRace hammers one registry from 32 goroutines — counters,
// gauges, histograms, dynamic label children and concurrent renders — and
// is run under -race by make test. The final counts are also checked so the
// atomics are proven lossless, not merely data-race-free.
func TestRegistryRace(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_race_ops_total", "ops")
	g := r.Gauge("test_race_depth", "depth")
	hv := r.HistogramVec("test_race_wait_seconds", "wait", []float64{0.001, 0.01, 0.1}, "worker")
	cv := r.CounterVec("test_race_kind_total", "by kind", "kind")

	const goroutines = 32
	const iters = 1000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			worker := fmt.Sprintf("w%d", i%8)
			h := hv.With(worker)
			for j := 0; j < iters; j++ {
				c.Inc()
				g.Set(float64(j))
				h.Observe(float64(j%200) / 1000)
				cv.With(worker).Inc()
				if j%100 == 0 {
					r.WritePrometheus(io.Discard)
					r.WriteJSON(io.Discard)
				}
			}
		}(i)
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*iters {
		t.Errorf("counter = %v, want %d", got, goroutines*iters)
	}
	var total uint64
	for i := 0; i < 8; i++ {
		total += hv.With(fmt.Sprintf("w%d", i)).Count()
	}
	if total != goroutines*iters {
		t.Errorf("histogram observations = %d, want %d", total, goroutines*iters)
	}
}

// TestNilRegistryIsUninstrumented pins the contract every bundle in the
// tree builds on: a nil registry hands out nil handles, nil vectors hand
// out nil handles, and a nil handle swallows every mutation and reads 0.
func TestNilRegistryIsUninstrumented(t *testing.T) {
	var r *Registry
	b := []float64{1, 2}
	if r.CounterVec("nil_ops_total", "h", "l") != nil || r.GaugeVec("nil_depth", "h", "l") != nil ||
		r.HistogramVec("nil_wait_seconds", "h", b, "l") != nil {
		t.Error("a nil registry handed out a non-nil vector")
	}
	var (
		cv *CounterVec
		gv *GaugeVec
		hv *HistogramVec
	)
	counters := map[string]*Counter{"Registry.Counter": r.Counter("nil_ops_total", "h"), "CounterVec.With": cv.With("x")}
	gauges := map[string]*Gauge{"Registry.Gauge": r.Gauge("nil_depth", "h"), "GaugeVec.With": gv.With("x")}
	histograms := map[string]*Histogram{"Registry.Histogram": r.Histogram("nil_wait_seconds", "h", b), "HistogramVec.With": hv.With("x")}
	for from, c := range counters {
		if c != nil {
			t.Errorf("%s on nil returned a non-nil counter", from)
		}
		c.Inc()
		c.Add(3)
		if c.Value() != 0 {
			t.Errorf("nil counter from %s reads %v", from, c.Value())
		}
	}
	for from, g := range gauges {
		if g != nil {
			t.Errorf("%s on nil returned a non-nil gauge", from)
		}
		g.Set(4)
		g.Add(-2)
		g.Inc()
		g.Dec()
		if g.Value() != 0 {
			t.Errorf("nil gauge from %s reads %v", from, g.Value())
		}
	}
	for from, h := range histograms {
		if h != nil {
			t.Errorf("%s on nil returned a non-nil histogram", from)
		}
		h.Observe(1.5)
		if h.Count() != 0 || h.Sum() != 0 {
			t.Errorf("nil histogram from %s reads count %d sum %v", from, h.Count(), h.Sum())
		}
	}
}
