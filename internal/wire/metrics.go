package wire

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/sched"
)

// CallBuckets spans the protocol's latency range: in-process dispatch
// (tens of microseconds) through LAN round trips to a badly lagging link.
var CallBuckets = []float64{50e-6, 200e-6, 1e-3, 5e-3, 25e-3, 0.1, 0.5, 2}

// Metrics is the wire layer's instrumentation bundle, shared by the
// caller-side and handler-side wrappers: Meter times the slave's view of a
// call (network round trip included), MeterHandler times the master's
// dispatch alone, each against whichever registry it was built on.
type Metrics struct {
	CallSeconds *metrics.HistogramVec
}

// NewMetrics registers (or re-attaches to) the wire families on r.
func NewMetrics(r *metrics.Registry) *Metrics {
	return &Metrics{
		CallSeconds: r.HistogramVec("wire_call_seconds", "Protocol call latency by message kind.", CallBuckets, "kind"),
	}
}

// meteredCaller wraps a Caller, timing every Call by message kind.
type meteredCaller struct {
	inner Caller
	m     *Metrics
}

// Meter wraps c so every Call records its latency (success or failure) in
// m.CallSeconds under the request's message kind.
func Meter(c Caller, m *Metrics) Caller {
	if m.CallSeconds == nil {
		// Uninstrumented: skip the wrapper and its time.Now pair per call.
		return c
	}
	return &meteredCaller{inner: c, m: m}
}

func (mc *meteredCaller) Call(req Envelope) (Envelope, error) {
	start := time.Now()
	resp, err := mc.inner.Call(req)
	mc.m.CallSeconds.With(KindOf(req).String()).Observe(time.Since(start).Seconds())
	return resp, err
}

func (mc *meteredCaller) Close() error { return mc.inner.Close() }

// meteredHandler wraps a Handler, timing every Dispatch by message kind.
type meteredHandler struct {
	inner Handler
	m     *Metrics
}

// MeterHandler wraps h so every Dispatch records its latency in
// m.CallSeconds under the request's message kind.
func MeterHandler(h Handler, m *Metrics) Handler {
	if m.CallSeconds == nil {
		// Uninstrumented: skip the wrapper and its time.Now pair per dispatch.
		return h
	}
	return &meteredHandler{inner: h, m: m}
}

func (mh *meteredHandler) Dispatch(req Envelope) Envelope {
	start := time.Now()
	resp := mh.inner.Dispatch(req)
	mh.m.CallSeconds.With(KindOf(req).String()).Observe(time.Since(start).Seconds())
	return resp
}

func (mh *meteredHandler) SlaveGone(id sched.SlaveID) { mh.inner.SlaveGone(id) }
