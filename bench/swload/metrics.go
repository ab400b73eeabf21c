package main

import (
	"sort"
	"time"

	"repro/internal/httpapi"
)

// metricDef is one named metric, as BENCHMARK.json lists it. The bounds of
// the end-to-end metrics live only in BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the server sees; each is reported on
// every workload and gated by its bound. bench/README.md says what each
// means and why failed_share and the tail latency are not in this list.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "gcups", Unit: "GCUPS", Better: "higher"},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "cpu_s_per_gcell", Unit: "s/Gcell", Better: "lower"},
}

// perLayer are the metrics of single layers, taken in the traced run. A
// metric whose layer is not on a workload's path reads 0 there.
var perLayer = []metricDef{
	{Name: "client.latency_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "client.latency_tail_pct", Unit: "%", Better: "higher"},
	{Name: "client.samples", Unit: "count", Better: "higher"},
	{Name: "client.failed_share", Unit: "share", Better: "lower"},
	{Name: "farrar.mcups", Unit: "MCUPS", Better: "higher"},
	{Name: "farrar.allocs_per_seq", Unit: "count", Better: "lower"},
	{Name: "farrar.fallback16_share", Unit: "share", Better: "lower"},
	{Name: "farrar.window_mcups", Unit: "MCUPS", Better: "higher"},
	{Name: "slave.engine_mcups", Unit: "MCUPS", Better: "higher"},
	{Name: "slave.engine_over_kernel", Unit: "share", Better: "higher"},
	{Name: "prefilter.scan_mres_per_s", Unit: "Mres/s", Better: "higher"},
	{Name: "prefilter.selectivity", Unit: "share", Better: "lower"},
	{Name: "prefilter.rescored_cell_share", Unit: "share", Better: "lower"},
	{Name: "prefilter.top1_recall", Unit: "share", Better: "higher"},
	{Name: "master.job_floor_ms", Unit: "ms", Better: "lower"},
	{Name: "master.task_overhead_us", Unit: "us", Better: "lower"},
	{Name: "sched.replicated_task_share", Unit: "share", Better: "lower"},
	{Name: "sched.useful_cell_share", Unit: "share", Better: "higher"},
	{Name: "hybridsw.search_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "hybridsw.floor_ms", Unit: "ms", Better: "lower"},
	{Name: "hybridsw.engines_busy_share", Unit: "share", Better: "higher"},
	{Name: "cluster.search_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "cluster.merge_overhead_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "cluster.shard_skew", Unit: "ratio", Better: "lower"},
	{Name: "cluster.failovers_total", Unit: "count", Better: "lower"},
	{Name: "jobs.queue_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "jobs.queue_wait_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "jobs.execute_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "jobs.executors_busy_share", Unit: "share", Better: "lower"},
	{Name: "jobs.cache_hit_share", Unit: "share", Better: "higher"},
	{Name: "jobs.coalesced_total", Unit: "count", Better: "higher"},
	{Name: "jobs.submit_wait_us_p50", Unit: "us", Better: "lower"},
	{Name: "jobs.submit_wait_durable_us_p50", Unit: "us", Better: "lower"},
	{Name: "jobs.tenant_p95_ratio", Unit: "ratio", Better: "lower"},
	{Name: "httpapi.overhead_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "httpapi.cached_search_us_p50", Unit: "us", Better: "lower"},
	{Name: "httpapi.rejected_share", Unit: "share", Better: "lower"},
	{Name: "serve.short_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.medium_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.repeat_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "process.cpu_util_share", Unit: "share", Better: "higher"},
	{Name: "efficiency.e2e_over_kernel", Unit: "share", Better: "higher"},
	{Name: "budget.httpapi_ms", Unit: "ms", Better: "lower"},
	{Name: "budget.jobs_ms", Unit: "ms", Better: "lower"},
	{Name: "budget.search_ms", Unit: "ms", Better: "lower"},
	{Name: "budget.slave_ms", Unit: "ms", Better: "lower"},
	{Name: "budget.kernel_ms", Unit: "ms", Better: "lower"},
	{Name: "budget.kernel_share", Unit: "share", Better: "higher"},
	{Name: "budget.accounted_share", Unit: "share", Better: "higher"},
	{Name: "swload.sched_lag_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
}

// window is everything one timed window produced.
type window struct {
	recs       []record
	answers    []*answer
	audits     []record
	start, end time.Time
	cpuSeconds float64 // server CPU spent inside the window
	peakRSSMB  float64
	varz0      varz // before the window (after the warm-up)
	varz1      varz // after it
	jobs       []httpapi.JobView
	dbResidues int64
}

func (w *window) seconds() float64 { return w.end.Sub(w.start).Seconds() }

// ok lists the indices of the verified answers.
func (w *window) ok() []int {
	var out []int
	for i := range w.recs {
		if w.recs[i].failure == "" {
			out = append(out, i)
		}
	}
	return out
}

// failed counts the requests, audits included, not answered 200 with a
// verified body.
func (w *window) failed() int {
	n := len(w.recs) - len(w.ok())
	for i := range w.audits {
		if w.audits[i].failure != "" {
			n++
		}
	}
	return n
}

// cells is the full-scan-equivalent work of the verified answers: query
// length x database residues, whatever the mode actually computed.
func (w *window) cells() float64 {
	var residues int64
	for _, i := range w.ok() {
		residues += w.recs[i].req.residues()
	}
	return float64(residues) * float64(w.dbResidues)
}

// latenciesOf returns the latencies from the due time, in ms, of the
// verified answers whose request passes keep.
func (w *window) latenciesOf(keep func(*request) bool) []float64 {
	var out []float64
	for _, i := range w.ok() {
		if keep(w.recs[i].req) {
			out = append(out, ms(w.recs[i].latency()))
		}
	}
	return out
}

// latencies is latenciesOf one class, or of every request when class is "".
func (w *window) latencies(class string) []float64 {
	return w.latenciesOf(func(r *request) bool { return class == "" || r.Class == class })
}

// lagP95 is how late the generator sent, in ms: actual send minus due.
func (w *window) lagP95() float64 {
	lag := make([]float64, len(w.recs))
	for i := range w.recs {
		lag[i] = ms(w.recs[i].sent.Sub(w.recs[i].due))
	}
	return percentile(lag, 95)
}

// endToEndMetrics computes every end-to-end metric of an untraced window.
func endToEndMetrics(w *window, setups []float64) map[string]float64 {
	gcells := w.cells() / 1e9
	return map[string]float64{
		"setup_s":         median(setups),
		"gcups":           ratio(gcells, w.seconds()),
		"latency_p50_ms":  median(w.latencies("")),
		"peak_rss_mb":     w.peakRSSMB,
		"cpu_s_per_gcell": ratio(w.cpuSeconds, gcells),
	}
}

// windowJobs returns the server's job records created inside the window
// that ran (cache hits never start), oldest first.
func (w *window) windowJobs() []httpapi.JobView {
	var out []httpapi.JobView
	for _, j := range w.jobs {
		if j.CacheHit || j.Started == nil || j.Finished == nil || j.Created.Before(w.start) || j.Created.After(w.end) {
			continue
		}
		out = append(out, j)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Created.Before(out[k].Created) })
	return out
}

// joinJobs pairs each verified request with the job it created: the
// oldest unclaimed job of the same size and tenant created while the
// request was in flight. Cache hits and coalesced requests have none.
func (w *window) joinJobs() map[int]httpapi.JobView {
	jobs := w.windowJobs()
	claimed := make([]bool, len(jobs))
	idx := w.ok()
	sort.Slice(idx, func(a, b int) bool { return w.recs[idx[a]].sent.Before(w.recs[idx[b]].sent) })
	out := map[int]httpapi.JobView{}
	for _, i := range idx {
		r := &w.recs[i]
		for k, j := range jobs {
			if claimed[k] || j.Residues != r.req.residues() || j.Tenant != r.req.Tenant ||
				j.Created.Before(r.sent) || j.Created.After(r.done) {
				continue
			}
			claimed[k] = true
			out[i] = j
			break
		}
	}
	return out
}

// layerMetrics computes the per-layer metrics that come from the traced
// window itself: client-side timings, the answers' filter blocks, GET
// /jobs and the /varz deltas. It also records the jobs.* spans under the
// requests they belong to. rec must be the traced window's recorder.
func layerMetrics(w *window, rec *recorder, out map[string]float64) {
	all := w.latencies("")
	tailPct, _ := tailPercentile(len(all))
	out["client.latency_tail_ms"] = percentile(all, tailPct)
	out["client.latency_tail_pct"] = tailPct
	out["client.samples"] = float64(len(all))
	out["client.failed_share"] = ratio(float64(w.failed()), float64(len(w.recs)+len(w.audits)))

	var rejected, repeats float64
	for i := range w.recs {
		if w.recs[i].status == 429 {
			rejected++
		}
		if w.recs[i].req.Class == classRepeat {
			repeats++
		}
	}
	out["httpapi.rejected_share"] = ratio(rejected, float64(len(w.recs)))
	out["swload.sched_lag_p95_ms"] = w.lagP95()
	out["serve.short_p50_ms"] = median(w.latencies(classShort))
	out["serve.medium_p50_ms"] = median(w.latencies(classMedium))
	out["serve.repeat_p50_ms"] = median(w.latencies(classRepeat))

	// The answers' filter blocks and the planted sources.
	var selectivity, rescoredShare []float64
	var filteredQueries, top1 float64
	var usefulCells float64
	for _, i := range w.ok() {
		r, a := &w.recs[i], w.answers[i]
		if f := a.resp.Filter; f != nil {
			selectivity = append(selectivity, f.Selectivity)
			rescoredShare = append(rescoredShare, ratio(float64(f.RescoredCells), float64(f.FullScanCells)))
			usefulCells += float64(f.RescoredCells)
			for qi, q := range r.req.Queries {
				filteredQueries++
				if len(a.hits[qi]) > 0 && a.hits[qi][0].Index == q.Source {
					top1++
				}
			}
		} else {
			usefulCells += float64(r.req.residues()) * float64(w.dbResidues)
		}
	}
	out["prefilter.selectivity"] = mean(selectivity)
	out["prefilter.rescored_cell_share"] = mean(rescoredShare)
	out["prefilter.top1_recall"] = ratio(top1, filteredQueries)

	// /varz deltas over the window.
	d := func(name string) float64 { return w.varz1.delta(w.varz0, name) }
	out["sched.replicated_task_share"] = ratio(d("sched_tasks_replicated_total"), d("sched_tasks_assigned_total"))
	out["sched.useful_cell_share"] = ratio(usefulCells, d("slave_cells_computed_total"))
	out["cluster.failovers_total"] = d("cluster_failovers_total")
	out["jobs.cache_hit_share"] = ratio(d("jobs_cache_hits_total"), repeats)
	out["jobs.coalesced_total"] = d("jobs_coalesced_total")
	out["process.cpu_util_share"] = ratio(w.cpuSeconds, w.seconds()*engines)

	// GET /jobs: queue wait and execution per job.
	var wait, exec []float64
	var busy time.Duration
	for _, j := range w.windowJobs() {
		wait = append(wait, ms(j.Started.Sub(j.Created)))
		exec = append(exec, ms(j.Finished.Sub(*j.Started)))
		busy += j.Finished.Sub(*j.Started)
	}
	out["jobs.queue_wait_ms_p50"] = median(wait)
	out["jobs.queue_wait_ms_p95"] = percentile(wait, 95)
	out["jobs.execute_ms_p50"] = median(exec)
	out["jobs.executors_busy_share"] = ratio(busy.Seconds(), w.seconds()*engines)

	// Per-request join: the job's spans go under the request's round trip,
	// whose self time is then what the HTTP layer adds around the job.
	joined := w.joinJobs()
	for i, j := range joined {
		r := &w.recs[i]
		job := rec.add(r.roundtrip, r.req.Seq+1, "jobs.job", j.Created, *j.Finished)
		rec.add(job, r.req.Seq+1, "jobs.queue_wait", j.Created, *j.Started)
		rec.add(job, r.req.Seq+1, "jobs.execute", *j.Started, *j.Finished)
	}
	self := selfTimes(rec.spans)
	var overhead []float64
	for i := range joined {
		overhead = append(overhead, ms(self[w.recs[i].roundtrip]))
	}
	out["httpapi.overhead_ms_p50"] = median(overhead)

	tenantP95 := func(tenant string) float64 {
		return percentile(w.latenciesOf(func(r *request) bool { return r.Tenant == tenant }), 95)
	}
	out["jobs.tenant_p95_ratio"] = ratio(tenantP95("alice"), tenantP95("bob"))
}

// budgetMetrics splits the median request's latency over the layers, each
// share measured on its own so that their sum can be checked against the
// client's median: the HTTP layer from the request/job join, the jobs layer
// from GET /jobs (queue wait, plus execution beyond the replayed search),
// the search runner as the replayed search minus its engine time, and
// engine and kernel time as the median request's work over the replayed
// rates. A layer's self time is its time minus the layer below it.
func budgetMetrics(wl *workload, w *window, e2e, out map[string]float64) {
	latency := median(w.latencies(""))
	search := out["hybridsw.search_ms_p50"]
	if wl.Cluster {
		search = out["cluster.search_ms_p50"]
	}
	var reqResidues, reqQueries []float64
	for _, i := range w.ok() {
		reqResidues = append(reqResidues, float64(w.recs[i].req.residues()))
		reqQueries = append(reqQueries, float64(len(w.recs[i].req.Queries)))
	}
	queries := median(reqQueries)
	cells := median(reqResidues) * float64(w.dbResidues)
	// One task per query: a request keeps at most that many engines busy.
	parallel := min(engines, queries)
	var engineMs, kernelMs float64
	if wl.Mode == "filtered" {
		// Per query one automaton pass over the database, then the rescore
		// of the admitted windows; no engine-level replay separates the two
		// from the code around them.
		scanMs := queries * float64(w.dbResidues) / out["prefilter.scan_mres_per_s"] / 1e3
		rescoreMs := cells * out["prefilter.rescored_cell_share"] / out["farrar.window_mcups"] / 1e3
		kernelMs = (scanMs + rescoreMs) / parallel
		engineMs = kernelMs
	} else {
		kernelMs = cells / out["farrar.mcups"] / 1e3 / parallel
		engineMs = cells / out["slave.engine_mcups"] / 1e3 / parallel
	}
	out["budget.httpapi_ms"] = out["httpapi.overhead_ms_p50"]
	out["budget.jobs_ms"] = out["jobs.queue_wait_ms_p50"] + max(0, out["jobs.execute_ms_p50"]-search)
	out["budget.search_ms"] = search - engineMs
	out["budget.slave_ms"] = engineMs - kernelMs
	out["budget.kernel_ms"] = kernelMs
	out["budget.kernel_share"] = ratio(kernelMs, latency)
	var accounted float64
	for _, k := range []string{"budget.httpapi_ms", "budget.jobs_ms", "budget.search_ms", "budget.slave_ms", "budget.kernel_ms"} {
		accounted += out[k]
	}
	out["budget.accounted_share"] = ratio(accounted, latency)
	out["efficiency.e2e_over_kernel"] = ratio(e2e["gcups"]*1000, out["farrar.mcups"]*engines)
}
