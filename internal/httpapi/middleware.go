package httpapi

import (
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"time"

	"repro/internal/metrics"
)

// DefaultMaxBody caps request bodies (http.MaxBytesReader); an oversized
// POST fails with 413 instead of being read without bound. FASTA payloads
// for realistic query batches are well under this.
const DefaultMaxBody = 8 << 20

// RequestIDHeader carries the per-request correlation ID. An incoming
// value is honored (so callers can trace across services); otherwise the
// middleware generates one. Either way it is echoed on the response.
const RequestIDHeader = "X-Request-ID"

// RequestBuckets spans HTTP handler latencies from static JSON (sub-ms)
// to long database searches, in seconds.
var RequestBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2, 10, 60}

// httpMetrics is the HTTP-layer instrumentation bundle.
type httpMetrics struct {
	requests *metrics.CounterVec
	seconds  *metrics.HistogramVec
	inFlight *metrics.Gauge
}

func newHTTPMetrics(r *metrics.Registry) *httpMetrics {
	return &httpMetrics{
		requests: r.CounterVec("httpapi_requests_total", "HTTP requests by route and status class.", "route", "class"),
		seconds:  r.HistogramVec("httpapi_request_seconds", "HTTP request latency by route.", RequestBuckets, "route"),
		inFlight: r.Gauge("httpapi_in_flight_requests", "Requests currently being served."),
	}
}

// statusWriter records the status code a handler sent (200 when it only
// ever wrote a body).
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// instrument wraps one route's handler with the service middleware: a
// request ID echoed on the response, a body-size cap, request metrics
// (count by status class, latency, in-flight) and an optional access-log
// line.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(RequestIDHeader)
		if id == "" {
			id = newRequestID()
		}
		w.Header().Set(RequestIDHeader, id)
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
		}
		sw := &statusWriter{ResponseWriter: w}
		s.met.inFlight.Inc()
		start := time.Now()
		h(sw, r)
		elapsed := time.Since(start)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		s.met.inFlight.Dec()
		s.met.requests.With(route, statusClass(sw.status)).Inc()
		s.met.seconds.With(route).Observe(elapsed.Seconds())
		if s.Log != nil {
			s.Log.Printf("%s %s %d %s id=%s", r.Method, r.URL.Path, sw.status, elapsed.Round(time.Microsecond), id)
		}
	}
}

func statusClass(code int) string {
	switch {
	case code >= 500:
		return "5xx"
	case code >= 400:
		return "4xx"
	case code >= 300:
		return "3xx"
	default:
		return "2xx"
	}
}

func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "00000000deadbeef"
	}
	return hex.EncodeToString(b[:])
}
