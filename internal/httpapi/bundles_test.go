package httpapi

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/farrar"
	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/prefilter"
	"repro/internal/sched"
	"repro/internal/slave"
	"repro/internal/wire"
)

// drive calls every mutator of one metric handle, going through With for a
// vector (a nil vector ignores the label arity).
func drive(h any) {
	switch h := h.(type) {
	case *metrics.Counter:
		h.Inc()
		h.Add(2)
	case *metrics.Gauge:
		h.Set(3)
		h.Add(-1)
		h.Inc()
		h.Dec()
	case *metrics.Histogram:
		h.Observe(0.5)
	case *metrics.CounterVec:
		drive(h.With("x"))
	case *metrics.GaugeVec:
		drive(h.With("x"))
	case *metrics.HistogramVec:
		drive(h.With("x"))
	}
}

// TestUninstrumentedBundles: every bundle built on a nil registry can drive
// every handle it holds — the contract that lets the serving code update
// metrics without guards. (master's bundle is unexported; the master tests
// run on it, as every Config without a Registry does.)
func TestUninstrumentedBundles(t *testing.T) {
	for _, b := range []any{
		sched.NewMetrics(nil), wire.NewMetrics(nil), slave.NewMetrics(nil), cluster.NewMetrics(nil),
		jobs.NewMetrics(nil), prefilter.NewMetrics(nil), farrar.NewMetrics(nil),
	} {
		v := reflect.ValueOf(b).Elem()
		for i := 0; i < v.NumField(); i++ {
			if !v.Field(i).IsNil() {
				t.Errorf("%s.%s is not nil on a nil registry", v.Type(), v.Type().Field(i).Name)
			}
			drive(v.Field(i).Interface())
		}
	}
	m := newHTTPMetrics(nil)
	drive(m.requests)
	drive(m.seconds)
	drive(m.inFlight)
}

// TestVarzFamilySet pins the metric families a fresh server registers
// before any traffic. The golden is the parent commit's list less
// wire_faults_injected_total, which nothing could increment.
func TestVarzFamilySet(t *testing.T) {
	s, _ := testServer(t)
	var buf bytes.Buffer
	if err := s.reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var families map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &families); err != nil {
		t.Fatal(err)
	}
	got := make([]string, 0, len(families))
	for name := range families {
		got = append(got, name)
	}
	sort.Strings(got)
	want, err := os.ReadFile("testdata/varz_families.golden")
	if err != nil {
		t.Fatal(err)
	}
	if g := strings.Join(got, "\n") + "\n"; g != string(want) {
		t.Errorf("/varz families changed:\ngot:\n%swant:\n%s", g, want)
	}
}
