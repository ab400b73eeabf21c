package httpapi

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	hybridsw "repro"
	"repro/internal/cluster"
	"repro/internal/fasta"
	"repro/internal/jobs"
)

// fleetExecutor runs jobs on the server's fleet: the request's overrides
// resolve against the platform defaults into cluster.Params, per-shard
// progress folds into the job record (GET /jobs/{id} shows it while the job
// runs), and the report is encoded as the POST /search
// response shape.
type fleetExecutor struct{ s *Server }

func (e fleetExecutor) Kind() jobs.Backend { return e.s.backend }

func (e fleetExecutor) Execute(ctx context.Context, req jobs.Request) ([]byte, error) {
	s := e.s
	select {
	case <-s.jobsSet:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	queries, err := fasta.NewReader(strings.NewReader(req.QueriesFasta)).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("queries_fasta: %w", err)
	}
	p := s.platform
	if req.TopK > 0 {
		p.TopK = req.TopK
	}
	if req.Policy != "" {
		p.Policy = req.Policy
	}
	p.AlignBest = req.Align
	if req.Mode != "" {
		p.Mode = req.Mode
	}
	p.Filter = hybridsw.FilterSpec{K: req.FilterK, Margin: req.FilterMargin}
	params := p.Params()
	params.OnShards = func(shards []cluster.ShardStatus) {
		s.jobs.SetShards(ctx, viewShards(shards))
	}
	rep, err := s.fleet.SearchContext(ctx, queries, params)
	if err != nil {
		return nil, err
	}
	return json.Marshal(s.buildSearchResponse(queries, rep))
}

// viewShards adapts the cluster's live shard statuses to the job record's
// projection (internal/jobs stays decoupled from internal/cluster).
func viewShards(shards []cluster.ShardStatus) []jobs.ShardProgress {
	out := make([]jobs.ShardProgress, len(shards))
	for i, sh := range shards {
		out[i] = jobs.ShardProgress{
			Shard:      sh.Shard,
			State:      sh.State.String(),
			Cells:      sh.Cells,
			TotalCells: sh.TotalCells,
			Rate:       sh.Rate,
		}
	}
	return out
}

// ReadyResponse is the GET /readyz payload: which backend serves traffic
// and whether it can actually take a job right now.
type ReadyResponse struct {
	Ready    bool          `json:"ready"`
	Backend  jobs.Backend  `json:"backend"`
	Draining bool          `json:"draining"`
	Shards   []ShardHealth `json:"shards"`
}

// ShardHealth mirrors cluster.ShardHealth in the API namespace.
type ShardHealth struct {
	Shard     int   `json:"shard"`
	Sequences int   `json:"sequences"`
	Residues  int64 `json:"residues"`
	Replicas  int   `json:"replicas"`
	Live      int   `json:"live"`
}

// handleReady is GET /readyz: 200 while the server can accept work, 503
// once it is draining or when any shard has no live replica left (a job
// submitted then would fail, so load balancers should stop routing here).
// /healthz stays a pure liveness probe.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	resp := ReadyResponse{
		Ready:    !s.draining.Load(),
		Backend:  s.backend,
		Draining: s.draining.Load(),
	}
	for _, h := range s.fleet.Health() {
		resp.Shards = append(resp.Shards, ShardHealth(h))
		if h.Live == 0 {
			resp.Ready = false
		}
	}
	code := http.StatusOK
	if !resp.Ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, resp)
}
