package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	hybridsw "repro"
	"repro/internal/cluster"
	"repro/internal/farrar"
	"repro/internal/httpapi"
	"repro/internal/jobs"
	"repro/internal/master"
	"repro/internal/prefilter"
	"repro/internal/sched"
	"repro/internal/seq"
	"repro/internal/slave"
	"repro/internal/wire"
)

// Budgets that keep the replays of one workload within ~10 s on two cores.
const (
	// scanReplayCells caps the kernel and the engine replay each: the
	// first cycle's queries are scored against every k-th database
	// sequence, with k chosen to stay under it. All of a cycle's lengths
	// are kept because kernel speed depends on query length.
	scanReplayCells = 600e6
	// searchReplayTime stops the whole-search replay once this much time
	// is spent (never before two requests).
	searchReplayTime = 4 * time.Second
	searchReplayMin  = 2
	sampleCycles     = 4
	floorReplayRuns  = 15
	jobsReplayRuns   = 300
	cachedReplayRuns = 200
	overheadTasks    = 64
	// engines mirrors the fixed -sse 2.
	engines = 2
)

// replayer runs the in-process layer replays on the first requests of the
// workload, after the server has stopped. Each replay calls one layer's
// public entry point the way the layer above it does.
type replayer struct {
	w        *workload
	db       []*seq.Sequence
	residues int64
	// cycle is the workload's first cycle, whose queries the scan-level
	// replays use; sample is the first sampleCycles cycles, from which the
	// whole-search replays take requests until their time is spent.
	cycle, sample []request
	dir           string // scratch directory for the durable jobs replay
	rec           *recorder
	out           map[string]float64
}

// timed records a replay span around fn and returns its wall time.
func (r *replayer) timed(name string, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	r.rec.add(0, 0, "replay."+name, start, end)
	return end.Sub(start), err
}

func (r *replayer) cycleQueries() []*seq.Sequence {
	var out []*seq.Sequence
	for _, req := range r.cycle {
		out = append(out, req.sequences()...)
	}
	return out
}

func (r *replayer) run(ctx context.Context) error {
	steps := []func(context.Context) error{r.scan, r.masterFloor, r.searchFloor, r.jobsSubmit, r.cachedSearch}
	if r.w.Mode == "filtered" {
		steps = append(steps, r.filter)
	}
	if r.w.Cluster {
		steps = append(steps, r.fleetSearch)
	} else {
		steps = append(steps, r.localSearch)
	}
	for _, step := range steps {
		if err := step(ctx); err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

// scan replays the two innermost layers on one goroutine: the kernel
// (farrar.NewKernel + Kernel.Score) and the engine around it
// (FarrarEngine.Search: hit slice, progress callbacks, top-k cut).
func (r *replayer) scan(context.Context) error {
	queries := r.cycleQueries()
	var cycleCells float64
	for _, q := range queries {
		cycleCells += float64(q.Len()) * float64(r.residues)
	}
	stride := int(cycleCells/scanReplayCells) + 1
	var sub []*seq.Sequence
	var subResidues int64
	for i := 0; i < len(r.db); i += stride {
		sub = append(sub, r.db[i])
		subResidues += int64(r.db[i].Len())
	}
	scheme := hybridsw.DefaultScheme()

	var cells, calls int64
	var stats farrar.Stats
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	mallocs := mem.Mallocs
	kernelTime, err := r.timed("farrar.score", func() error {
		for _, q := range queries {
			k, err := farrar.NewKernel(q.Residues, scheme)
			if err != nil {
				return err
			}
			for _, d := range sub {
				k.Score(d.Residues)
			}
			calls += int64(len(sub))
			cells += int64(q.Len()) * subResidues
			stats = stats.Add(k.Stats())
		}
		return nil
	})
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&mem)
	r.out["farrar.mcups"] = float64(cells) / kernelTime.Seconds() / 1e6
	r.out["farrar.allocs_per_seq"] = ratio(float64(mem.Mallocs-mallocs), float64(calls))
	r.out["farrar.fallback16_share"] = ratio(float64(stats.Fallback16), float64(stats.Total()))

	eng, err := slave.NewFarrarEngine("replay", scheme, sub, 0)
	if err != nil {
		return err
	}
	engineTime, err := r.timed("slave.search", func() error {
		for _, q := range queries {
			hits, err := eng.Search(q, func(int64) {}, nil)
			if err != nil {
				return err
			}
			slave.TopK(hits, topK)
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.out["slave.engine_mcups"] = float64(cells) / engineTime.Seconds() / 1e6
	r.out["slave.engine_over_kernel"] = ratio(r.out["slave.engine_mcups"], r.out["farrar.mcups"])
	return nil
}

// filter replays the filtered pipeline's two stages on the whole
// database: the Aho-Corasick scan, then the window rescore.
func (r *replayer) filter(context.Context) error {
	spec := prefilter.Spec{K: r.w.FilterK}
	scheme := hybridsw.DefaultScheme()
	var scanTime, rescoreTime time.Duration
	var scanned, rescored int64
	for _, q := range r.cycleQueries() {
		var res prefilter.Result
		d, err := r.timed("prefilter.run", func() (err error) {
			res, err = prefilter.Run(q.Residues, r.db, spec)
			return err
		})
		if err != nil {
			return err
		}
		scanTime += d
		scanned += res.Stats.ResiduesScanned
		d, err = r.timed("prefilter.rescore", func() error {
			rs, err := prefilter.NewRescorer(q.Residues, scheme)
			if err != nil {
				return err
			}
			_, cells, err := rs.Rescore(r.db, res.Windows)
			rescored += cells
			return err
		})
		if err != nil {
			return err
		}
		rescoreTime += d
	}
	r.out["prefilter.scan_mres_per_s"] = float64(scanned) / scanTime.Seconds() / 1e6
	r.out["farrar.window_mcups"] = float64(rescored) / rescoreTime.Seconds() / 1e6
	return nil
}

// stubEngine answers every task at once, so a job over it costs only the
// master/slave protocol.
type stubEngine struct{ name string }

func (e stubEngine) Name() string            { return e.name }
func (e stubEngine) Kind() sched.SlaveKind   { return sched.KindCPU }
func (e stubEngine) DeclaredSpeed() float64  { return 0 }
func (e stubEngine) DatabaseResidues() int64 { return 1 }
func (e stubEngine) Search(*seq.Sequence, func(int64), <-chan struct{}) ([]wire.Hit, error) {
	return nil, nil
}

// stubJob runs one master job of n one-residue tasks over two stub slaves
// on wire.Local, with the intervals hybridsw.SearchContext uses.
func stubJob(n int) error {
	queries := make([]*seq.Sequence, n)
	for i := range queries {
		queries[i] = seq.New(fmt.Sprintf("stub%d", i), "", []byte("A"))
	}
	m, err := master.New(master.Config{Queries: queries, DBResidues: 1, Adjust: true})
	if err != nil {
		return err
	}
	defer m.Close()
	var wg sync.WaitGroup
	errs := make([]error, engines)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = slave.Run(wire.Local{H: m}, stubEngine{name: fmt.Sprintf("stub%d", i)}, slave.Options{
				NotifyEvery: 50 * time.Millisecond, Poll: 10 * time.Millisecond, TopK: topK,
			})
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return m.Wait(time.Second)
}

func (r *replayer) masterFloor(context.Context) error {
	var one, many []float64
	for i := 0; i < floorReplayRuns; i++ {
		d, err := r.timed("master.job", func() error { return stubJob(1) })
		if err != nil {
			return err
		}
		one = append(one, ms(d))
		d, err = r.timed("master.job64", func() error { return stubJob(overheadTasks) })
		if err != nil {
			return err
		}
		many = append(many, ms(d)*1000/overheadTasks)
	}
	r.out["master.job_floor_ms"] = median(one)
	r.out["master.task_overhead_us"] = median(many)
	return nil
}

// platform is the server's search configuration, as swserve builds it from
// the fixed flags and a request of this workload.
func (r *replayer) platform() hybridsw.Platform {
	return hybridsw.Platform{
		SSECores: engines, Policy: "PSS", Adjust: true, TopK: topK,
		Mode: r.w.Mode, Filter: hybridsw.FilterSpec{K: r.w.FilterK},
	}
}

// searchFloor times a search with nothing to scan: engine construction,
// master, slave registration, polling and the final Wait.
func (r *replayer) searchFloor(ctx context.Context) error {
	q := []*seq.Sequence{seq.New("floor", "", []byte("A"))}
	p := r.platform()
	p.Mode, p.Filter = "", hybridsw.FilterSpec{}
	var runs []float64
	for i := 0; i < floorReplayRuns; i++ {
		d, err := r.timed("hybridsw.floor", func() error {
			_, err := hybridsw.SearchContext(ctx, q, r.db, p)
			return err
		})
		if err != nil {
			return err
		}
		runs = append(runs, ms(d))
	}
	r.out["hybridsw.floor_ms"] = median(runs)
	return nil
}

// localSearch replays whole searches the way the local executor runs them.
func (r *replayer) localSearch(ctx context.Context) error {
	var runs []float64
	var total time.Duration
	var cells float64
	for i := range r.sample {
		if i >= searchReplayMin && total >= searchReplayTime {
			break
		}
		queries := r.sample[i].sequences()
		d, err := r.timed("hybridsw.search", func() error {
			_, err := hybridsw.SearchContext(ctx, queries, r.db, r.platform())
			return err
		})
		if err != nil {
			return err
		}
		runs = append(runs, ms(d))
		total += d
		cells += float64(r.sample[i].residues()) * float64(r.residues)
	}
	r.out["hybridsw.search_ms_p50"] = median(runs)
	r.out["hybridsw.engines_busy_share"] = ratio(cells, total.Seconds()*engines*r.out["slave.engine_mcups"]*1e6)
	return nil
}

// fleetSearch replays whole searches on a fleet shaped like the server's.
func (r *replayer) fleetSearch(ctx context.Context) error {
	fleet, err := cluster.New(cluster.Config{DB: r.db, Shards: 2, Replicas: 2})
	if err != nil {
		return err
	}
	params := cluster.Params{Policy: "PSS", Adjust: true, TopK: topK, Mode: r.w.Mode,
		Filter: prefilter.Spec{K: r.w.FilterK}}
	var runs, merge, skew []float64
	var total time.Duration
	for i := range r.sample {
		if i >= searchReplayMin && total >= searchReplayTime {
			break
		}
		var rep *cluster.Report
		d, err := r.timed("cluster.search", func() (err error) {
			rep, err = fleet.SearchContext(ctx, r.sample[i].sequences(), params)
			return err
		})
		if err != nil {
			return err
		}
		total += d
		runs = append(runs, ms(d))
		var slowest, sum time.Duration
		for _, sh := range rep.Shards {
			slowest = max(slowest, sh.Elapsed)
			sum += sh.Elapsed
		}
		merge = append(merge, ms(d-slowest))
		skew = append(skew, ratio(float64(slowest)*float64(len(rep.Shards)), float64(sum)))
	}
	r.out["cluster.search_ms_p50"] = median(runs)
	r.out["cluster.merge_overhead_ms_p50"] = median(merge)
	r.out["cluster.shard_skew"] = mean(skew)
	return nil
}

// noopExecutor finishes every job at once with a fixed body.
type noopExecutor struct{}

func (noopExecutor) Kind() jobs.Backend { return jobs.BackendLocal }
func (noopExecutor) Execute(context.Context, jobs.Request) ([]byte, error) {
	return []byte(`{"results":[]}`), nil
}

// jobsSubmit times Submit + Wait + Result on a Manager whose executor does
// nothing: queue, cache and bookkeeping cost, then the same with the WAL
// and the result files of a durable directory.
func (r *replayer) jobsSubmit(ctx context.Context) error {
	for _, c := range []struct{ name, dir string }{
		{"jobs.submit_wait_us_p50", ""},
		{"jobs.submit_wait_durable_us_p50", filepath.Join(r.dir, "jobs-replay")},
	} {
		m, err := jobs.New(jobs.Config{Executor: noopExecutor{}, Dir: c.dir})
		if err != nil {
			return err
		}
		var runs []float64
		for i := 0; i < jobsReplayRuns && err == nil; i++ {
			req := jobs.Request{QueriesFasta: fmt.Sprintf(">r%d\nA\n", i), TopK: topK, Queries: 1, Residues: 1}
			var d time.Duration
			d, err = r.timed("jobs.submit_wait", func() error {
				j, err := m.Submit(req, false)
				if err != nil {
					return err
				}
				if j, err = m.Wait(ctx, j.ID); err != nil {
					return err
				}
				_, _, err = m.Result(j.ID)
				return err
			})
			runs = append(runs, ms(d)*1000)
		}
		if cerr := m.Close(ctx); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		r.out[c.name] = median(runs)
	}
	return nil
}

// cachedSearch times POST /search for a body whose result is cached: the
// HTTP layer's cost with no job behind it.
func (r *replayer) cachedSearch(ctx context.Context) error {
	p := r.platform()
	p.Mode, p.Filter = "", hybridsw.FilterSpec{}
	srv, err := httpapi.New("replay", r.db, p)
	if err != nil {
		return err
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body := []byte(`{"queries_fasta":">cached\nACDEFGHIKL\n","top_k":10}`)
	post := func() error {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/search", bytes.NewReader(body))
		if err != nil {
			return err
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("cached search replay: status %d", resp.StatusCode)
		}
		return nil
	}
	if err := post(); err != nil { // fills the cache
		return err
	}
	var runs []float64
	for i := 0; i < cachedReplayRuns; i++ {
		d, err := r.timed("httpapi.cached_search", post)
		if err != nil {
			return err
		}
		runs = append(runs, ms(d)*1000)
	}
	r.out["httpapi.cached_search_us_p50"] = median(runs)
	return srv.Close(ctx)
}
