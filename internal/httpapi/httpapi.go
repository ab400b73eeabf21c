// Package httpapi exposes the hybrid search engine as a small REST service
// (cmd/swserve): a database is loaded at startup and queries are submitted
// over HTTP, making the task execution environment usable from any
// language. JSON in, JSON out, stdlib only.
//
// Every route runs behind a middleware stack (request IDs, a body-size
// cap, request metrics and an optional access log), and the server's
// metrics registry — shared with the search platform, so scheduler, wire
// and slave families accumulate across requests — is exposed at
// GET /metrics (Prometheus text exposition) and GET /varz (JSON).
//
// Searches execute through the asynchronous job subsystem
// (internal/jobs): POST /jobs submits work and returns immediately,
// GET /jobs/{id} polls it, GET /jobs/{id}/result fetches the outcome and
// DELETE /jobs/{id} aborts real in-flight work. POST /search remains the
// synchronous facade — it submits a job and waits, so it shares the same
// admission control, singleflight coalescing and result cache, and a
// disconnected client cancels the underlying search instead of letting it
// burn to completion.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	hybridsw "repro"
	"repro/internal/cluster"
	"repro/internal/fasta"
	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/prefilter"
	"repro/internal/sched"
	"repro/internal/seq"
	"repro/internal/slave"
	"repro/internal/stats"
	"repro/internal/wire"
)

// Limits are the request-validation caps: a request exceeding one is
// rejected with 422 before any work is admitted, so a single oversized
// FASTA body cannot monopolize the server.
type Limits struct {
	MaxQueries  int   // queries per request
	MaxResidues int64 // total query residues per request
	MaxTopK     int   // hits per query a request may ask for, and gets when it omits top_k
	MaxAlignLen int   // per-sequence length cap for POST /align
}

// DefaultLimits caps requests at sizes a shared deployment tolerates;
// every field can be raised (or zeroed to disable) via Options.Limits.
var DefaultLimits = Limits{
	MaxQueries:  64,
	MaxResidues: 1 << 20,
	MaxTopK:     1000,
	MaxAlignLen: 100_000,
}

// Options tunes a Server beyond the platform defaults.
type Options struct {
	// Limits are the validation caps; zero fields take DefaultLimits
	// values. A negative field disables that cap.
	Limits Limits
	// Jobs configures the job subsystem (queue depth, executor-pool size,
	// cache budget, durable dir). Executor, Salt and Metrics are supplied
	// by the server and need not be set.
	Jobs jobs.Config
	// Fleet, when non-nil, is the sharded fleet every job runs on (the
	// cluster backend); it must be built over the same database the server
	// was. When nil the server builds the platform's own one-shard fleet
	// (the local backend).
	Fleet *cluster.Fleet
}

// Server serves search requests against one resident database.
type Server struct {
	db       []*seq.Sequence
	dbName   string
	residues int64
	platform hybridsw.Platform
	started  time.Time
	reg      *metrics.Registry
	met      *httpMetrics
	maxBody  int64
	limits   Limits
	jobs     *jobs.Manager
	// jobsSet is closed once jobs is stored: jobs.New already runs jobs
	// recovered from a durable dir, and their progress hooks report to it.
	jobsSet chan struct{}
	// fleet is the long-lived engine set every job runs on; backend names
	// its shape for job stamping and /readyz.
	fleet   *cluster.Fleet
	backend jobs.Backend

	// draining flips once shutdown starts; /readyz answers 503 from then
	// on so load balancers drain traffic before Close aborts running jobs.
	draining atomic.Bool

	// Log, when non-nil, receives one access-log line per request
	// (method, path, status, latency, request ID). Set it before Handler
	// is served.
	Log *log.Logger
}

// New builds a server over a database with a default platform configuration
// (individual request fields can override parts of it). If
// platform.Registry is nil a fresh registry is created; either way every
// search instruments into the registry that /metrics serves.
func New(dbName string, db []*seq.Sequence, platform hybridsw.Platform) (*Server, error) {
	return NewWithOptions(dbName, db, platform, Options{})
}

// NewWithOptions is New with explicit validation caps and job-subsystem
// configuration.
func NewWithOptions(dbName string, db []*seq.Sequence, platform hybridsw.Platform, opts Options) (*Server, error) {
	if len(db) == 0 {
		return nil, fmt.Errorf("httpapi: empty database")
	}
	reg := platform.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
		platform.Registry = reg
	}
	// Pre-register the scheduler, wire, slave and prefilter families so a
	// scrape before the first search already shows the full taxonomy.
	sched.NewMetrics(reg)
	wire.NewMetrics(reg)
	slave.NewMetrics(reg)
	prefilter.NewMetrics(reg)
	s := &Server{
		db: db, dbName: dbName, platform: platform, started: time.Now(),
		reg: reg, met: newHTTPMetrics(reg), maxBody: DefaultMaxBody,
		limits: fillLimits(opts.Limits), jobsSet: make(chan struct{}),
	}
	for _, d := range db {
		s.residues += int64(d.Len())
	}
	s.fleet, s.backend = opts.Fleet, jobs.BackendCluster
	if s.fleet == nil {
		var err error
		if s.fleet, err = hybridsw.NewFleet(db, platform); err != nil {
			return nil, err
		}
		s.backend = jobs.BackendLocal
	}
	jc := opts.Jobs
	jc.Executor = fleetExecutor{s}
	// The ranking does not depend on the fleet's shape, so the cache salt
	// deliberately ignores the backend.
	jc.Salt = s.cacheSalt()
	jc.Metrics = jobs.NewMetrics(reg)
	mgr, err := jobs.New(jc)
	if err != nil {
		return nil, err
	}
	s.jobs = mgr
	close(s.jobsSet)
	return s, nil
}

// fillLimits resolves the zero-means-default, negative-means-disabled
// convention field by field.
func fillLimits(l Limits) Limits {
	fill := func(v, def int) int {
		if v == 0 {
			return def
		}
		if v < 0 {
			return 0
		}
		return v
	}
	l.MaxQueries = fill(l.MaxQueries, DefaultLimits.MaxQueries)
	l.MaxTopK = fill(l.MaxTopK, DefaultLimits.MaxTopK)
	l.MaxAlignLen = fill(l.MaxAlignLen, DefaultLimits.MaxAlignLen)
	switch {
	case l.MaxResidues == 0:
		l.MaxResidues = DefaultLimits.MaxResidues
	case l.MaxResidues < 0:
		l.MaxResidues = 0
	}
	return l
}

// cacheSalt folds the serving identity into every job's cache key, so a
// redeploy over a different database or scoring scheme can never serve
// stale results from a reused jobs dir.
func (s *Server) cacheSalt() string {
	scheme := s.platform.Scheme
	if scheme.Matrix == nil {
		scheme = hybridsw.DefaultScheme()
	}
	return fmt.Sprintf("%s|%d|%d|%s|%s", s.dbName, len(s.db), s.residues,
		scheme.Matrix.Name(), scheme.Gap)
}

// SetDraining flips the /readyz signal: a draining server answers 503 so
// load balancers stop routing to it ahead of Close. Job submission is
// governed separately by the job subsystem's own drain state.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Close drains the job subsystem: running searches get until ctx ends to
// finish, then are aborted and re-queued for the next boot; the durable
// store (if any) is compacted and closed. /readyz flips to 503 first.
func (s *Server) Close(ctx context.Context) error {
	s.draining.Store(true)
	return s.jobs.Close(ctx)
}

// Handler returns the HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealth))
	mux.HandleFunc("GET /readyz", s.instrument("readyz", s.handleReady))
	mux.HandleFunc("GET /database", s.instrument("database", s.handleDatabase))
	mux.HandleFunc("POST /search", s.instrument("search", s.handleSearch))
	mux.HandleFunc("POST /align", s.instrument("align", s.handleAlign))
	mux.HandleFunc("POST /jobs", s.instrument("jobs_submit", s.handleJobSubmit))
	mux.HandleFunc("GET /jobs", s.instrument("jobs_list", s.handleJobList))
	mux.HandleFunc("GET /jobs/{id}", s.instrument("jobs_get", s.handleJobGet))
	mux.HandleFunc("GET /jobs/{id}/result", s.instrument("jobs_result", s.handleJobResult))
	mux.HandleFunc("DELETE /jobs/{id}", s.instrument("jobs_cancel", s.handleJobCancel))
	mux.HandleFunc("GET /metrics", s.instrument("metrics", s.reg.Handler().ServeHTTP))
	mux.HandleFunc("GET /varz", s.instrument("varz", s.reg.VarzHandler().ServeHTTP))
	return mux
}

// decodeJSON decodes the next value of dec into v, writing the appropriate
// error response (413 when the body-size cap fired, 400 otherwise) and
// returning false on failure.
func decodeJSON(w http.ResponseWriter, dec *json.Decoder, v any) bool {
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeErr(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", mbe.Limit)
			return false
		}
		writeErr(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return false
	}
	return true
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"uptime_s": time.Since(s.started).Seconds(),
	})
}

func (s *Server) handleDatabase(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"name":      s.dbName,
		"sequences": len(s.db),
		"residues":  s.residues,
	})
}

// SearchRequest is the POST /search and POST /jobs payload.
type SearchRequest struct {
	// QueriesFasta holds one or more FASTA records.
	QueriesFasta string `json:"queries_fasta"`
	TopK         int    `json:"top_k,omitempty"`
	Policy       string `json:"policy,omitempty"`
	Align        bool   `json:"align,omitempty"`
	// Mode selects the pipeline: "" or "full" scans every database cell;
	// "filtered" runs the k-mer seed prefilter and rescores only the
	// candidate windows (exact scores inside windows, possible misses for
	// hits sharing no seed k-mer with the query).
	Mode string `json:"mode,omitempty"`
	// FilterK and FilterMargin tune filtered mode: seed k-mer length and
	// window margin in residues (0 = the server platform's Filter, whose
	// zero fields are the prefilter defaults). Any k >= 1 works; a k
	// longer than the query clamps to the query length.
	FilterK      int `json:"filter_k,omitempty"`
	FilterMargin int `json:"filter_margin,omitempty"`
	// Priority orders the tenant's job queue: higher runs first, FIFO
	// within a level. Only meaningful while the queue is backed up.
	Priority int `json:"priority,omitempty"`
	// Tenant names the submitting tenant for fair queueing and quotas; the
	// X-Tenant request header takes precedence over this field. Empty means
	// the anonymous default tenant.
	Tenant string `json:"tenant,omitempty"`
}

// SearchHit is one reported hit.
type SearchHit struct {
	SeqID  string   `json:"seq_id"`
	Score  int      `json:"score"`
	EValue *float64 `json:"evalue,omitempty"`

	QueryRow  string `json:"query_row,omitempty"`
	TargetRow string `json:"target_row,omitempty"`
}

// SearchResult is one query's outcome.
type SearchResult struct {
	Query string      `json:"query"`
	Hits  []SearchHit `json:"hits"`
}

// FilterReport is the filtered pipeline's accounting in a response.
type FilterReport struct {
	Selectivity       float64 `json:"selectivity"`
	Windows           int     `json:"windows"`
	ResiduesScanned   int64   `json:"residues_scanned"`
	CandidateResidues int64   `json:"candidate_residues"`
	RescoredCells     int64   `json:"rescored_cells"`
	FullScanCells     int64   `json:"full_scan_cells"`
	CellsSaved        int64   `json:"cells_saved"`
}

// SearchResponse is the POST /search reply.
type SearchResponse struct {
	Results  []SearchResult `json:"results"`
	Elapsed  float64        `json:"elapsed_s"`
	GCUPS    float64        `json:"gcups"`
	Database string         `json:"database"`
	// Filter reports the prefilter's work; present only for mode=filtered.
	Filter *FilterReport `json:"filter,omitempty"`
}

// decodeSearch decodes and validates a search payload: JSON errors and
// empty FASTA get 400, cap violations and a negative top_k get 422 with a
// machine-readable reason, an unknown policy gets 422 (catching it before
// an async job would fail obscurely at run time). An omitted top_k
// resolves to the cap. On failure the response is already written and ok
// is false.
func (s *Server) decodeSearch(w http.ResponseWriter, r *http.Request) (jreq jobs.Request, ok bool) {
	var req SearchRequest
	if !decodeJSON(w, json.NewDecoder(r.Body), &req) {
		return jreq, false
	}
	tenant := req.Tenant
	if h := r.Header.Get("X-Tenant"); h != "" {
		tenant = h
	}
	if err := validTenant(tenant); err != nil {
		writeReject(w, http.StatusUnprocessableEntity, "bad_tenant", "%v", err)
		return jreq, false
	}
	queries, err := fasta.NewReader(strings.NewReader(req.QueriesFasta)).ReadAll()
	if err != nil {
		writeErr(w, http.StatusBadRequest, "queries_fasta: %v", err)
		return jreq, false
	}
	if len(queries) == 0 {
		writeErr(w, http.StatusBadRequest, "queries_fasta contains no sequences")
		return jreq, false
	}
	if s.limits.MaxQueries > 0 && len(queries) > s.limits.MaxQueries {
		writeReject(w, http.StatusUnprocessableEntity, "too_many_queries",
			"%d queries exceeds the %d-query cap", len(queries), s.limits.MaxQueries)
		return jreq, false
	}
	var residues int64
	for _, q := range queries {
		if q.Len() == 0 {
			writeReject(w, http.StatusUnprocessableEntity, "empty_query",
				"query %q is empty", q.ID)
			return jreq, false
		}
		residues += int64(q.Len())
	}
	if s.limits.MaxResidues > 0 && residues > s.limits.MaxResidues {
		writeReject(w, http.StatusUnprocessableEntity, "too_many_residues",
			"%d total query residues exceeds the %d-residue cap", residues, s.limits.MaxResidues)
		return jreq, false
	}
	switch {
	case req.TopK < 0:
		writeReject(w, http.StatusUnprocessableEntity, "bad_top_k",
			"top_k %d is negative", req.TopK)
		return jreq, false
	case s.limits.MaxTopK > 0 && req.TopK > s.limits.MaxTopK:
		writeReject(w, http.StatusUnprocessableEntity, "top_k_too_large",
			"top_k %d exceeds the cap of %d", req.TopK, s.limits.MaxTopK)
		return jreq, false
	case req.TopK == 0:
		// Omitted: the cap, so "all hits" cannot get round it.
		req.TopK = s.limits.MaxTopK
	}
	if req.Policy != "" {
		if _, err := sched.NewPolicy(req.Policy); err != nil {
			writeReject(w, http.StatusUnprocessableEntity, "unknown_policy",
				"policy: %v", err)
			return jreq, false
		}
	}
	// One search, one cache key: the mode and filter fields are written in
	// the one form the search reads them in, so equivalent requests share a
	// key and coalesce. An omitted mode, filter_k or filter_margin is the
	// platform's.
	if req.Mode == "" {
		req.Mode = s.platform.Mode
	}
	switch req.Mode {
	case "", "full":
		req.Mode, req.FilterK, req.FilterMargin = "full", 0, 0
	case "filtered":
		if req.FilterK == 0 {
			req.FilterK = s.platform.Filter.K
		}
		if req.FilterMargin == 0 {
			req.FilterMargin = s.platform.Filter.Margin
		}
		spec := prefilter.Spec{K: req.FilterK, Margin: req.FilterMargin}.Normalize()
		req.FilterK, req.FilterMargin = spec.K, spec.Margin
		if spec.Margin == 0 {
			req.FilterMargin = -1 // no margin: a 0 would read as the default
		}
	default:
		writeReject(w, http.StatusUnprocessableEntity, "unknown_mode",
			"mode %q is not one of \"\", \"full\", \"filtered\"", req.Mode)
		return jreq, false
	}
	return jobs.Request{
		QueriesFasta: req.QueriesFasta,
		TopK:         req.TopK,
		Policy:       req.Policy,
		Align:        req.Align,
		Mode:         req.Mode,
		FilterK:      req.FilterK,
		FilterMargin: req.FilterMargin,
		Priority:     req.Priority,
		Tenant:       tenant,
		Queries:      len(queries),
		Residues:     residues,
	}, true
}

// validTenant vets a tenant name before it becomes a queue bucket and a
// metrics label: at most 64 characters from [a-zA-Z0-9._-]. Empty is the
// anonymous default and always valid.
func validTenant(name string) error {
	if len(name) > 64 {
		return fmt.Errorf("tenant name exceeds 64 characters")
	}
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("tenant name contains %q; allowed: [a-zA-Z0-9._-]", c)
		}
	}
	return nil
}

// buildSearchResponse shapes a report into the API response, attaching
// E-values when the scheme has tabulated statistics.
func (s *Server) buildSearchResponse(queries []*seq.Sequence, rep *cluster.Report) SearchResponse {
	scheme := s.platform.Scheme
	if scheme.Matrix == nil {
		scheme = hybridsw.DefaultScheme()
	}
	params, haveStats := stats.Lookup(scheme)
	queryLen := map[string]int{}
	for _, q := range queries {
		queryLen[q.ID] = q.Len()
	}
	resp := SearchResponse{
		Elapsed:  rep.Elapsed.Seconds(),
		GCUPS:    rep.GCUPS(),
		Database: s.dbName,
	}
	if fs := rep.Filter; fs != nil {
		resp.Filter = &FilterReport{
			Selectivity:       fs.Selectivity(),
			Windows:           fs.Windows,
			ResiduesScanned:   fs.ResiduesScanned,
			CandidateResidues: fs.CandidateResidues,
			RescoredCells:     fs.RescoredCells,
			FullScanCells:     fs.FullScanCells,
			CellsSaved:        fs.CellsSaved(),
		}
	}
	for _, qr := range rep.PerQuery {
		res := SearchResult{Query: qr.Query}
		for _, h := range qr.Hits {
			hit := SearchHit{SeqID: h.SeqID, Score: h.Score}
			if haveStats {
				e := params.EValue(h.Score, queryLen[qr.Query], s.residues)
				hit.EValue = &e
			}
			if len(h.QueryRow) > 0 {
				hit.QueryRow = string(h.QueryRow)
				hit.TargetRow = string(h.TargetRow)
			}
			res.Hits = append(res.Hits, hit)
		}
		resp.Results = append(resp.Results, res)
	}
	return resp
}

// handleSearch is the synchronous facade over the job subsystem: submit,
// wait, stream the result the job hands over (retained results only serve
// repeats). It shares admission control, coalescing and repeat answers
// with POST /jobs, and a disconnected client cancels the underlying search
// (unless an async submission also owns it).
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	jreq, ok := s.decodeSearch(w, r)
	if !ok {
		return
	}
	job, err := s.jobs.Submit(jreq, false)
	if err != nil {
		writeJobErr(w, err)
		return
	}
	body, job, err := s.jobs.WaitResult(r.Context(), job.ID)
	if err != nil {
		if r.Context().Err() == nil {
			writeErr(w, http.StatusInternalServerError, "result: %v", err)
			return
		}
		// The client went away; the response will never be read. The wait
		// already cancelled the job if nobody else wants it.
		writeErr(w, http.StatusServiceUnavailable, "client cancelled: %v", err)
		return
	}
	writeJobOutcome(w, body, job)
}

// writeJobOutcome renders a terminal job and, when done, its result body
// for a synchronous caller.
func writeJobOutcome(w http.ResponseWriter, body []byte, job jobs.Job) {
	switch job.State {
	case jobs.StateDone:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(body)
	case jobs.StateFailed:
		writeErr(w, http.StatusInternalServerError, "search: %s", job.Error)
	case jobs.StateCanceled:
		writeErr(w, http.StatusConflict, "search was cancelled")
	case jobs.StateQueued, jobs.StateRunning:
		// Unreachable after Wait; kept for exhaustiveness.
		writeErr(w, http.StatusInternalServerError, "job %s still %s", job.ID, job.State)
	default:
		writeErr(w, http.StatusInternalServerError, "job %s in unknown state %q", job.ID, job.State)
	}
}

// AlignRequest is the POST /align payload: two literal sequences, aligned
// locally. A body with any other field gets 400.
type AlignRequest struct {
	A string `json:"a"`
	B string `json:"b"`
}

// AlignResponse is the POST /align reply.
type AlignResponse struct {
	Score     int     `json:"score"`
	Identity  float64 `json:"identity"`
	QueryRow  string  `json:"query_row"`
	TargetRow string  `json:"target_row"`
}

func (s *Server) handleAlign(w http.ResponseWriter, r *http.Request) {
	var req AlignRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if !decodeJSON(w, dec, &req) {
		return
	}
	if req.A == "" || req.B == "" {
		writeErr(w, http.StatusBadRequest, "both a and b are required")
		return
	}
	if cap := s.limits.MaxAlignLen; cap > 0 && (len(req.A) > cap || len(req.B) > cap) {
		writeReject(w, http.StatusUnprocessableEntity, "sequence_too_long",
			"alignment sequences are capped at %d residues", cap)
		return
	}
	scheme := hybridsw.DefaultScheme()
	// The DP runs off-handler so a disconnected client releases the
	// request slot immediately; the stray computation is bounded by
	// MaxAlignLen and finishes on its own.
	done := make(chan *hybridsw.Alignment, 1)
	go func() {
		done <- hybridsw.Align([]byte(strings.ToUpper(req.A)), []byte(strings.ToUpper(req.B)), scheme)
	}()
	select {
	case a := <-done:
		writeJSON(w, http.StatusOK, AlignResponse{
			Score:     a.Score,
			Identity:  a.Identity(),
			QueryRow:  string(a.QueryRow),
			TargetRow: string(a.TargetRow),
		})
	case <-r.Context().Done():
		writeErr(w, http.StatusServiceUnavailable, "client cancelled: %v", r.Context().Err())
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// writeReject renders a validation/admission rejection with a
// machine-readable reason alongside the human-readable error.
func writeReject(w http.ResponseWriter, code int, reason, format string, args ...any) {
	writeJSON(w, code, map[string]string{
		"error":  fmt.Sprintf(format, args...),
		"reason": reason,
	})
}

// writeJobErr maps job-subsystem errors onto HTTP statuses: queue overload
// is 429 with a Retry-After hint, a draining server is 503, unknown IDs are
// 404.
func writeJobErr(w http.ResponseWriter, err error) {
	var rej *jobs.RejectError
	if errors.As(err, &rej) {
		code := http.StatusBadRequest
		switch rej.Reason {
		case "queue_full", "tenant_quota":
			code = http.StatusTooManyRequests
			w.Header().Set("Retry-After", fmt.Sprintf("%d", int(rej.RetryAfter.Seconds()+0.5)))
		case "draining":
			code = http.StatusServiceUnavailable
		}
		writeReject(w, code, rej.Reason, "%s", rej.Detail)
		return
	}
	if errors.Is(err, jobs.ErrNotFound) {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	writeErr(w, http.StatusInternalServerError, "jobs: %v", err)
}
