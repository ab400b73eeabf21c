package httpapi

import (
	"net/http"
	"time"

	"repro/internal/jobs"
)

// JobView is the API projection of a job record: everything a client needs
// to poll and reason about a job, minus the raw FASTA payload (which can be
// megabytes and is something the submitter already has).
type JobView struct {
	ID        string     `json:"id"`
	State     jobs.State `json:"state"`
	Key       string     `json:"key"`
	Created   time.Time  `json:"created"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	Error     string     `json:"error,omitempty"`
	Coalesced int        `json:"coalesced,omitempty"`
	CacheHit  bool       `json:"cache_hit,omitempty"`
	// Backend names the execution path that runs (or ran) this job.
	Backend jobs.Backend `json:"backend,omitempty"`

	Queries     int    `json:"queries"`
	Residues    int64  `json:"residues"`
	TopK        int    `json:"top_k,omitempty"`
	Policy      string `json:"policy,omitempty"`
	Align       bool   `json:"align,omitempty"`
	Mode        string `json:"mode,omitempty"`
	Priority    int    `json:"priority,omitempty"`
	Tenant      string `json:"tenant,omitempty"`
	ResultBytes int64  `json:"result_bytes,omitempty"`
	// Shards shows a job's per-shard progress in cells, full and filtered
	// alike.
	Shards []jobs.ShardProgress `json:"shards,omitempty"`
}

func viewOf(j jobs.Job) JobView {
	v := JobView{
		ID:        j.ID,
		State:     j.State,
		Key:       j.Key,
		Created:   j.Created,
		Error:     j.Error,
		Coalesced: j.Coalesced,
		CacheHit:  j.CacheHit,
		Backend:   j.Backend,

		Queries:     j.Request.Queries,
		Residues:    j.Request.Residues,
		TopK:        j.Request.TopK,
		Policy:      j.Request.Policy,
		Align:       j.Request.Align,
		Mode:        j.Request.Mode,
		Priority:    j.Request.Priority,
		Tenant:      j.Request.Tenant,
		ResultBytes: j.ResultBytes,
		Shards:      j.Shards,
	}
	if !j.Started.IsZero() {
		t := j.Started
		v.Started = &t
	}
	if !j.Finished.IsZero() {
		t := j.Finished
		v.Finished = &t
	}
	return v
}

// handleJobSubmit is POST /jobs: fire-and-forget submission. A freshly
// queued (or coalesced in-flight) job answers 202; a job that is already
// terminal at submission time — a cache hit — answers 200 immediately.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	jreq, ok := s.decodeSearch(w, r)
	if !ok {
		return
	}
	job, err := s.jobs.Submit(jreq, true)
	if err != nil {
		writeJobErr(w, err)
		return
	}
	code := http.StatusAccepted
	if job.State.Terminal() {
		code = http.StatusOK
	}
	writeJSON(w, code, viewOf(job))
}

// handleJobList is GET /jobs: every tracked job, newest first, optionally
// filtered with ?state=queued|running|done|failed|canceled.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	filter := r.URL.Query().Get("state")
	views := []JobView{}
	for _, j := range s.jobs.List() {
		if filter != "" && string(j.State) != filter {
			continue
		}
		views = append(views, viewOf(j))
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

// handleJobGet is GET /jobs/{id}: one job's status.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	job, err := s.jobs.Get(r.PathValue("id"))
	if err != nil {
		writeJobErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, viewOf(job))
}

// handleJobResult is GET /jobs/{id}/result: the encoded search response for
// a done job; 202 with the job view while it is still queued or running;
// 410 for a cancelled job or an evicted result; 500 for a failed one.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	body, job, err := s.jobs.Result(r.PathValue("id"))
	if err != nil {
		if job.State == jobs.StateDone {
			writeErr(w, http.StatusGone, "result: %v", err)
			return
		}
		writeJobErr(w, err)
		return
	}
	switch job.State {
	case jobs.StateDone:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(body)
	case jobs.StateQueued, jobs.StateRunning:
		writeJSON(w, http.StatusAccepted, viewOf(job))
	case jobs.StateFailed:
		writeErr(w, http.StatusInternalServerError, "search: %s", job.Error)
	case jobs.StateCanceled:
		writeErr(w, http.StatusGone, "job was cancelled")
	default:
		writeErr(w, http.StatusInternalServerError, "job in unknown state %q", job.State)
	}
}

// handleJobCancel is DELETE /jobs/{id}: abort a queued or running job. The
// cancellation propagates through the search context into the scheduler, so
// in-flight kernel work actually stops. Idempotent — cancelling a terminal
// job returns its (unchanged) snapshot.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	job, err := s.jobs.Cancel(r.PathValue("id"))
	if err != nil {
		writeJobErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, viewOf(job))
}
