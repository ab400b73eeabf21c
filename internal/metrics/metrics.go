// Package metrics is a stdlib-only, race-safe instrumentation subsystem:
// counters, gauges and fixed-bucket histograms collected in a Registry that
// renders both the Prometheus text exposition format (version 0.0.4) and a
// JSON "varz" debug view. A companion EventLog (eventlog.go) emits
// structured JSON-lines scheduler events whose shapes match the
// discrete-event traces of internal/platform, so one jq/pandas toolchain
// reads simulated and wall-clock runs alike.
//
// Metric names must follow the subsystem_name_unit convention enforced by
// CheckName: lowercase snake_case with a subsystem prefix, counters ending
// in _total, histograms ending in a recognised unit suffix. Registration
// panics on violations — a bad name is a programmer error, and failing loud
// keeps the namespace coherent across every process binary.
//
// All metric operations are lock-free atomic updates, safe for any number
// of goroutines; registration and rendering take short internal locks.
// Registration is idempotent: asking a Registry for an already-registered
// family with the same signature returns the existing one, so independent
// subsystems (and repeated jobs on a long-lived service) can share handles
// without coordination.
//
// An uninstrumented component is a nil *Registry: its constructors hand out
// nil handles, With on a nil vector returns a nil handle, and every mutator
// of a nil Counter, Gauge or Histogram is a no-op (Value, Count and Sum
// read 0). Callers therefore build their bundles unconditionally and update
// them without guards.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// ContentType is the Prometheus text exposition content type served by
// Registry.Handler.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Kind classifies a metric family.
type Kind string

// The metric kinds understood by the registry and by CheckName.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

var (
	nameRE  = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)+$`)
	labelRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)
)

// histogramUnits are the unit suffixes a histogram name may end in. The
// convention keeps exposition self-describing: a scraper knows
// wire_call_seconds is in seconds without reading the source.
var histogramUnits = []string{"_seconds", "_bytes", "_cells", "_ratio"}

// CheckName validates a metric family name against the repo-wide
// subsystem_name_unit convention: lowercase snake_case with at least one
// underscore (the leading segment is the subsystem), counters ending in
// _total, gauges not ending in _total, histograms ending in a recognised
// unit suffix. swcheck's metricname analyzer applies the same check
// statically to every metric-name literal in the tree.
func CheckName(kind Kind, name string) error {
	if !nameRE.MatchString(name) {
		return fmt.Errorf("metric name %q is not subsystem_name_unit lowercase snake_case", name)
	}
	switch kind {
	case KindCounter:
		if !strings.HasSuffix(name, "_total") {
			return fmt.Errorf("counter %q must end in _total", name)
		}
	case KindGauge:
		if strings.HasSuffix(name, "_total") {
			return fmt.Errorf("gauge %q must not end in _total", name)
		}
	case KindHistogram:
		ok := false
		for _, u := range histogramUnits {
			if strings.HasSuffix(name, u) {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("histogram %q must end in a unit suffix (%s)", name, strings.Join(histogramUnits, ", "))
		}
	default:
		return fmt.Errorf("unknown metric kind %q", kind)
	}
	return nil
}

// value is a float64 updated atomically through its bit pattern.
type value struct{ bits atomic.Uint64 }

func (v *value) add(d float64) {
	for {
		old := v.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if v.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (v *value) set(x float64) { v.bits.Store(math.Float64bits(x)) }
func (v *value) get() float64  { return math.Float64frombits(v.bits.Load()) }

// Counter is a monotonically increasing float64.
type Counter struct{ v value }

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds d; negative deltas are a programmer error and panic.
func (c *Counter) Add(d float64) {
	if d < 0 {
		panic(fmt.Sprintf("metrics: counter decreased by %v", d))
	}
	if c != nil {
		c.v.add(d)
	}
}

// Value returns the current count.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.v.get()
}

// Gauge is an arbitrarily settable float64.
type Gauge struct{ v value }

// Set replaces the value.
func (g *Gauge) Set(x float64) {
	if g != nil {
		g.v.set(x)
	}
}

// Add adds d (negative to subtract).
func (g *Gauge) Add(d float64) {
	if g != nil {
		g.v.add(d)
	}
}

// Inc adds 1.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v.get()
}

// Histogram counts observations into fixed buckets (upper bounds,
// inclusive, ascending) plus an implicit +Inf bucket, and tracks the sum of
// all observed values — the shape Prometheus latency and size distributions
// use. Individual fields are updated atomically; a concurrent render may
// see a count without its sum, which scrapers tolerate by design.
type Histogram struct {
	upper  []float64
	counts []atomic.Uint64 // len(upper)+1; last is +Inf
	sum    value
	n      atomic.Uint64
}

// NewHistogram builds a histogram over the given bucket upper bounds, which
// must be finite and strictly ascending.
func NewHistogram(buckets []float64) *Histogram {
	checkBuckets(buckets)
	return &Histogram{
		upper:  append([]float64(nil), buckets...),
		counts: make([]atomic.Uint64, len(buckets)+1),
	}
}

func checkBuckets(buckets []float64) {
	if len(buckets) == 0 {
		panic("metrics: histogram needs at least one bucket")
	}
	for i, b := range buckets {
		if math.IsInf(b, 0) || math.IsNaN(b) {
			panic("metrics: histogram buckets must be finite (+Inf is implicit)")
		}
		if i > 0 && buckets[i-1] >= b {
			panic("metrics: histogram buckets must be strictly ascending")
		}
	}
}

// Observe records one value.
func (h *Histogram) Observe(x float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.upper, x) // first bucket with upper >= x (le semantics)
	h.counts[i].Add(1)
	h.sum.add(x)
	h.n.Add(1)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.get()
}

// BucketCounts returns the per-bucket (non-cumulative) observation counts;
// the final element is the +Inf bucket.
func (h *Histogram) BucketCounts() []uint64 {
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Registry is a set of named metric families. The zero value is not usable;
// call NewRegistry. A nil *Registry is the uninstrumented registry: its
// family constructors register nothing and return nil handles.
type Registry struct {
	mu     sync.Mutex
	byName map[string]*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

type family struct {
	name    string
	help    string
	kind    Kind
	labels  []string
	buckets []float64

	mu       sync.Mutex
	children map[string]*child
}

type child struct {
	values []string
	c      *Counter
	g      *Gauge
	h      *Histogram
}

func (r *Registry) family(kind Kind, name, help string, buckets []float64, labels []string) *family {
	if err := CheckName(kind, name); err != nil {
		panic("metrics: " + err.Error())
	}
	for _, l := range labels {
		if !labelRE.MatchString(l) {
			panic(fmt.Sprintf("metrics: invalid label name %q on %s", l, name))
		}
	}
	if kind == KindHistogram {
		checkBuckets(buckets)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.kind != kind || !equalStrings(f.labels, labels) || !equalFloats(f.buckets, buckets) {
			panic(fmt.Sprintf("metrics: %s re-registered as %s%v (was %s%v)", name, kind, labels, f.kind, f.labels))
		}
		return f
	}
	f := &family{
		name:     name,
		help:     help,
		kind:     kind,
		labels:   append([]string(nil), labels...),
		buckets:  append([]float64(nil), buckets...),
		children: map[string]*child{},
	}
	r.byName[name] = f
	return f
}

func (f *family) child(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s takes %d label value(s), got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[key]
	if !ok {
		c = &child{values: append([]string(nil), values...)}
		switch f.kind {
		case KindCounter:
			c.c = &Counter{}
		case KindGauge:
			c.g = &Gauge{}
		case KindHistogram:
			c.h = NewHistogram(f.buckets)
		}
		f.children[key] = c
	}
	return c
}

// Counter registers (or returns) an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterVec(name, help).With()
}

// CounterVec registers (or returns) a labelled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{r.family(KindCounter, name, help, nil, labels)}
}

// Gauge registers (or returns) an unlabelled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.GaugeVec(name, help).With()
}

// GaugeVec registers (or returns) a labelled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{r.family(KindGauge, name, help, nil, labels)}
}

// Histogram registers (or returns) an unlabelled histogram.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.HistogramVec(name, help, buckets).With()
}

// HistogramVec registers (or returns) a labelled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	return &HistogramVec{r.family(KindHistogram, name, help, buckets, labels)}
}

// CounterVec is a counter family keyed by label values.
type CounterVec struct{ f *family }

// With returns the counter for the given label values (created on first use).
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.child(values).c
}

// GaugeVec is a gauge family keyed by label values.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values (created on first use).
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.f.child(values).g
}

// HistogramVec is a histogram family keyed by label values.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values (created on first use).
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.f.child(values).h
}

// sorted returns the families in name order.
func (r *Registry) sorted() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*family, 0, len(r.byName))
	for _, f := range r.byName {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func (f *family) sortedChildren() []*child {
	f.mu.Lock()
	defer f.mu.Unlock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*child, len(keys))
	for i, k := range keys {
		out[i] = f.children[k]
	}
	return out
}

// errWriter remembers the first write error so rendering loops stay flat.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return 0, e.err
	}
	n, err := e.w.Write(p)
	if err != nil {
		e.err = err
	}
	return n, err
}

// WritePrometheus renders every family in the text exposition format
// (version 0.0.4): # HELP and # TYPE headers, one line per sample,
// histograms as cumulative le-labelled _bucket series plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	ew := &errWriter{w: w}
	for _, f := range r.sorted() {
		fmt.Fprintf(ew, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(ew, "# TYPE %s %s\n", f.name, f.kind)
		for _, c := range f.sortedChildren() {
			base := labelString(f.labels, c.values, "", "")
			switch f.kind {
			case KindCounter:
				fmt.Fprintf(ew, "%s%s %s\n", f.name, base, fmtFloat(c.c.Value()))
			case KindGauge:
				fmt.Fprintf(ew, "%s%s %s\n", f.name, base, fmtFloat(c.g.Value()))
			case KindHistogram:
				counts := c.h.BucketCounts()
				var cum uint64
				for i, ub := range f.buckets {
					cum += counts[i]
					fmt.Fprintf(ew, "%s_bucket%s %d\n", f.name, labelString(f.labels, c.values, "le", fmtFloat(ub)), cum)
				}
				cum += counts[len(f.buckets)]
				fmt.Fprintf(ew, "%s_bucket%s %d\n", f.name, labelString(f.labels, c.values, "le", "+Inf"), cum)
				fmt.Fprintf(ew, "%s_sum%s %s\n", f.name, base, fmtFloat(c.h.Sum()))
				fmt.Fprintf(ew, "%s_count%s %d\n", f.name, base, c.h.Count())
			}
		}
	}
	return ew.err
}

// Handler serves the Prometheus text exposition (GET /metrics).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		_ = r.WritePrometheus(w)
	})
}

// jsonBucket is one cumulative histogram bucket in the varz view.
type jsonBucket struct {
	LE    string `json:"le"`
	Count uint64 `json:"count"`
}

// jsonMetric is one sample (one label combination) in the varz view.
type jsonMetric struct {
	Labels  map[string]string `json:"labels,omitempty"`
	Value   *float64          `json:"value,omitempty"`
	Count   *uint64           `json:"count,omitempty"`
	Sum     *float64          `json:"sum,omitempty"`
	Buckets []jsonBucket      `json:"buckets,omitempty"`
}

// jsonFamily is one metric family in the varz view.
type jsonFamily struct {
	Type    string       `json:"type"`
	Help    string       `json:"help"`
	Metrics []jsonMetric `json:"metrics"`
}

// WriteJSON renders the registry as an indented JSON object keyed by family
// name — the human-friendly /varz debug view.
func (r *Registry) WriteJSON(w io.Writer) error {
	out := map[string]jsonFamily{}
	for _, f := range r.sorted() {
		jf := jsonFamily{Type: string(f.kind), Help: f.help, Metrics: []jsonMetric{}}
		for _, c := range f.sortedChildren() {
			m := jsonMetric{}
			if len(f.labels) > 0 {
				m.Labels = map[string]string{}
				for i, l := range f.labels {
					m.Labels[l] = c.values[i]
				}
			}
			switch f.kind {
			case KindCounter:
				v := c.c.Value()
				m.Value = &v
			case KindGauge:
				v := c.g.Value()
				m.Value = &v
			case KindHistogram:
				n := c.h.Count()
				s := c.h.Sum()
				m.Count = &n
				m.Sum = &s
				counts := c.h.BucketCounts()
				var cum uint64
				for i, ub := range f.buckets {
					cum += counts[i]
					m.Buckets = append(m.Buckets, jsonBucket{LE: fmtFloat(ub), Count: cum})
				}
				cum += counts[len(f.buckets)]
				m.Buckets = append(m.Buckets, jsonBucket{LE: "+Inf", Count: cum})
			}
			jf.Metrics = append(jf.Metrics, m)
		}
		out[f.name] = jf
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// VarzHandler serves the JSON debug view (GET /varz).
func (r *Registry) VarzHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = r.WriteJSON(w)
	})
}

// labelString renders {a="x",b="y"} (plus an optional extra pair, used for
// le) or "" when there are no labels at all.
func labelString(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extraValue))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func fmtFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
