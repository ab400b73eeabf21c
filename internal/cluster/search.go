package cluster

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/gcups"
	"repro/internal/master"
	"repro/internal/prefilter"
	"repro/internal/sched"
	"repro/internal/seq"
	"repro/internal/slave"
	"repro/internal/wire"
)

// Params configures one search.
type Params struct {
	Policy    string // "SS", "PSS" (default), "Fixed", "WFixed"
	Adjust    bool   // workload adjustment within each shard
	Omega     int    // PSS history window; 0 = default
	TopK      int    // hits returned per query; 0 = all
	AlignBest bool   // traceback rows for each query's best hit

	// Mode selects the task kind: "" or "full" runs the exhaustive scan;
	// "filtered" makes every range task a k-mer seed prefilter of its
	// range followed by a Smith-Waterman rescore of the candidate windows.
	// Filter parameterizes the prefilter; the zero value uses the
	// prefilter defaults. The seed table is query-derived and candidate
	// windows never span sequences, so filtering commutes with sharding and
	// with the range cut.
	Mode   string
	Filter prefilter.Spec

	// OnShards, when non-nil, observes every per-shard progress change
	// with a fresh snapshot of all shard statuses (safe to retain).
	OnShards func([]ShardStatus)
}

// ShardStatus is one shard's live progress within a running search.
type ShardStatus struct {
	Shard int
	State ShardState
	// Cells is the shard master's authoritative finished-cell tally;
	// TotalCells is the shard's full workload, which Cells reaches when the
	// shard is done (in filtered mode, cell-equivalents: the shard's
	// residues x sched.PrefilterEquivCells per query). Rate is the latest
	// reporting replica's instantaneous speed.
	Cells      int64
	TotalCells int64
	Rate       float64
}

// ShardReport is one shard's contribution to a finished search.
type ShardReport struct {
	Shard     int
	Sequences int
	Residues  int64
	// Cells is the DP work this shard computed; Elapsed its scan wall
	// time; GCUPS the two combined. Failovers counts replica deaths the
	// shard absorbed without failing the job.
	Cells     int64
	Elapsed   time.Duration
	GCUPS     float64
	Failovers int
}

// Report is the outcome of a search.
type Report struct {
	PerQuery []master.QueryResult
	Elapsed  time.Duration
	// Cells sums the DP work across every shard — query×database for the
	// full scan, the (smaller) rescored total in filtered mode — so GCUPS
	// aggregates the whole fleet's throughput. Shards carries the
	// per-shard breakdown.
	Cells  int64
	Shards []ShardReport
	// Filter aggregates the filtered pipeline's accounting across shards
	// (nil for full scans). No field depends on the shard count or the
	// range cut.
	Filter *master.FilterStats
}

// GCUPS returns the fleet's aggregate throughput in billions of cell
// updates per second: the cross-shard cell sum over the job's wall time.
func (r *Report) GCUPS() float64 { return gcups.GCUPS(r.Cells, r.Elapsed) }

// SearchContext compares every query against the sharded database: one
// master-protocol job per shard, every live replica registered as a slave,
// per-query hits merged across shards under wire.HitLess, so the ranking
// does not depend on the shard count. When ctx is cancelled every replica
// loop's stop signal closes: in-flight scans abort through the engines'
// cancel channels and the loops return without asking for more work, so a
// cancelled search releases its CPU promptly and returns ctx.Err(). It is
// safe for concurrent use; each call builds its own shard masters.
func (f *Fleet) SearchContext(ctx context.Context, queries []*seq.Sequence, p Params) (*Report, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("cluster: no queries")
	}
	if p.Policy == "" {
		p.Policy = "PSS"
	}
	// Validate once; each shard master gets its own policy instance
	// below (policies carry per-job speed-estimation state).
	if _, err := sched.NewPolicy(p.Policy); err != nil {
		return nil, err
	}
	var filtered bool
	switch p.Mode {
	case "", "full":
	case "filtered":
		filtered = true
	default:
		return nil, fmt.Errorf("cluster: unknown mode %q", p.Mode)
	}

	var queryResidues int64
	for _, q := range queries {
		queryResidues += int64(q.Len())
	}
	board := newBoard(f.shards, queries, filtered, queryResidues, p)

	start := time.Now()
	outcomes := make([]shardOutcome, len(f.shards))
	var wg sync.WaitGroup
	for i, s := range f.shards {
		wg.Add(1)
		go func(i int, s *shard) {
			defer wg.Done()
			o := &outcomes[i]
			o.results, o.filter, o.report, o.err = f.searchShard(ctx, s, queries, filtered, p, board)
		}(i, s)
	}
	// A cancelled ctx stops every replica loop (searchShard), so it
	// already unblocks this join; returning before it would leak replica
	// goroutines.
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, o := range outcomes {
		if o.err != nil {
			return nil, o.err
		}
	}

	rep := &Report{Elapsed: time.Since(start), Shards: make([]ShardReport, len(f.shards))}
	if filtered {
		rep.Filter = &master.FilterStats{Queries: len(queries)}
	}
	for i, o := range outcomes {
		rep.Shards[i] = o.report
		rep.Cells += o.report.Cells
		if filtered {
			rep.Filter.Add(o.filter.Tally)
		}
	}
	rep.PerQuery = f.merge(queries, outcomes, p.TopK)
	mode := p.Mode
	if mode == "" {
		mode = "full"
	}
	f.met.Searches.With(mode).Inc()
	return rep, nil
}

// shardOutcome is one shard's scan result within a job.
type shardOutcome struct {
	results []master.QueryResult
	filter  *master.FilterStats
	report  ShardReport
	err     error
}

// merge gathers each query's per-shard hit lists into the global ranking.
// Shard hit indices were already remapped to global database positions, so
// concatenating and sorting under wire.HitLess yields exactly the order a
// single-node scan produces; the top-k cut commutes with the merge because
// every shard — and within it every range task — already kept its own k
// best.
func (f *Fleet) merge(queries []*seq.Sequence, outcomes []shardOutcome, topK int) []master.QueryResult {
	merged := make([]master.QueryResult, len(queries))
	for qi := range queries {
		qr := master.QueryResult{Query: queries[qi].ID}
		var hits []wire.Hit
		for _, o := range outcomes {
			sq := o.results[qi]
			hits = append(hits, sq.Hits...)
			if sq.Elapsed > qr.Elapsed {
				qr.Elapsed = sq.Elapsed
			}
			qr.Replicas += sq.Replicas
		}
		wire.SortHits(hits)
		if topK > 0 && len(hits) > topK {
			hits = hits[:topK]
		}
		// Each range task of each shard aligned its own best hit; only
		// the global best keeps its traceback, so exactly one hit per
		// query carries rows whatever the cut.
		for i := 1; i < len(hits); i++ {
			hits[i].QueryRow, hits[i].TargetRow = nil, nil
			hits[i].QueryStart, hits[i].QueryEnd = 0, 0
			hits[i].TargetStart, hits[i].TargetEnd = 0, 0
		}
		qr.Hits = hits
		if len(hits) > 0 {
			if si := f.shardOf(hits[0].Index); si >= 0 {
				qr.Slave = outcomes[si].results[qi].Slave
			}
		}
		merged[qi] = qr
	}
	return merged
}

// shardOf maps a global database index to its shard.
func (f *Fleet) shardOf(index int) int {
	for i, s := range f.shards {
		if index >= s.offset && index < s.offset+len(s.db) {
			return i
		}
	}
	return -1
}

// searchShard runs one shard's scan as a full master-protocol job: a
// dedicated master over the shard's residues and range cut, every live
// replica running the standard slave loop against it. Each loop has one
// stop signal, its Options.Done: a per-replica context under the
// replica's life, so a kill reaches the loop at once. It also ends with
// the shard context: the master's Done, the search's ctx or the death of
// the last live replica. Once a killed replica's loop has returned, the
// shard reports the replica gone (SlaveGone), which requeues its tasks for
// the survivors exactly as a dropped TCP connection does.
func (f *Fleet) searchShard(ctx context.Context, s *shard, queries []*seq.Sequence, filtered bool, p Params, board *progressBoard) ([]master.QueryResult, *master.FilterStats, ShardReport, error) {
	report := ShardReport{Shard: s.index, Sequences: len(s.db), Residues: s.residues}
	fail := func(err error) ([]master.QueryResult, *master.FilterStats, ShardReport, error) {
		board.setState(s.index, ShardFailed)
		f.met.ShardScans.With("failed").Inc()
		return nil, nil, report, err
	}

	pol, err := sched.NewPolicy(p.Policy)
	if err != nil {
		return fail(err)
	}
	m, err := master.New(master.Config{
		Queries:    queries,
		DBResidues: s.residues,
		Ranges:     s.ranges,
		Policy:     pol,
		Adjust:     p.Adjust,
		Omega:      p.Omega,
		Registry:   f.cfg.Registry,
		Filtered:   filtered,
		Filter:     p.Filter,
		Progress: func(doneCells int64, rate float64) {
			board.setProgress(s.index, doneCells, rate)
		},
	})
	if err != nil {
		return fail(err)
	}
	defer m.Close()

	// The live replicas take part; live counts those still alive. When the
	// last one dies the job cannot finish, and the shard fails.
	replicas := s.liveReplicas()
	live := len(replicas)
	if live == 0 {
		return fail(fmt.Errorf("cluster: shard %d has no live replica", s.index))
	}
	shardCtx, abort := context.WithCancel(ctx)
	defer abort()
	go func() {
		select {
		case <-m.Done():
			abort()
		case <-shardCtx.Done():
		}
	}()
	var mu sync.Mutex // guards live and report.Failovers
	errs := make([]error, len(replicas))
	var wg sync.WaitGroup
	for i, r := range replicas {
		wg.Add(1)
		go func(i int, r replica) {
			defer wg.Done()
			replicaCtx, stop := context.WithCancel(r.life)
			defer stop()
			defer context.AfterFunc(shardCtx, stop)()
			c := &replicaCaller{Caller: wire.Meter(wire.Local{H: m}, f.wireMet)}
			_, errs[i] = slave.Run(c, r.eng, slave.Options{
				NotifyEvery: 20 * time.Millisecond,
				Poll:        5 * time.Millisecond,
				TopK:        p.TopK,
				AlignBest:   p.AlignBest,
				Done:        replicaCtx.Done(),
				Metrics:     f.slaveMet,
			})
			if r.life.Err() == nil {
				return
			}
			// Killed: the loop has stopped, so its tasks can requeue on
			// the survivors as a dropped connection's do.
			if c.registered {
				m.SlaveGone(c.id)
			}
			mu.Lock()
			report.Failovers++
			if live--; live == 0 {
				abort()
			}
			mu.Unlock()
			board.setState(s.index, ShardScanning)
			f.met.Failovers.Inc()
		}(i, r)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, nil, report, err
	}
	for i, rerr := range errs {
		// Nothing fails a loop on purpose, so any error is a real engine
		// or protocol failure and fails the shard.
		if rerr != nil {
			return fail(fmt.Errorf("cluster: shard %d replica %s: %w", s.index, replicas[i].eng.Name(), rerr))
		}
	}
	select {
	case <-m.Done():
	default:
		return fail(fmt.Errorf("cluster: shard %d lost every replica mid-scan (%d failovers)", s.index, report.Failovers))
	}

	results := m.Results()
	for qi := range results {
		for hi := range results[qi].Hits {
			// Shard engines index their own database slice; lift hits to
			// global database positions so the cross-shard merge (and the
			// tie-break identity with single-node runs) works on one axis.
			results[qi].Hits[hi].Index += s.offset
		}
	}
	var fs *master.FilterStats
	if filtered {
		stats := m.FilterStats()
		fs = &stats
	}
	report.Elapsed = m.Elapsed()
	if filtered {
		report.Cells = fs.RescoredCells
	} else {
		for _, q := range queries {
			report.Cells += int64(q.Len()) * s.residues
		}
	}
	report.GCUPS = gcups.GCUPS(report.Cells, report.Elapsed)
	board.finish(s.index)
	f.met.ShardScans.With("done").Inc()
	f.met.ShardScanSeconds.Observe(report.Elapsed.Seconds())
	return results, fs, report, nil
}
