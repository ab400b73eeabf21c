package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	hybridsw "repro"
	"repro/internal/fasta"
	"repro/internal/seq"
)

// config is what one benchmark run is asked to do.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	// scale is the database scale factor; the smoke test shrinks it.
	scale float64
	// guards enables the guard rails that make a full-size run refuse to
	// report (window too short, generator ran late, too few cores).
	guards bool
	bin    string // the built swserve
}

// Guard-rail limits.
const (
	minWindow  = 5 * time.Second
	maxLagP95  = 10.0 // ms
	minCores   = 2
	warmUpLen  = 100
	auditCount = 2
)

// How often the set-up is repeated for setup_s.
const (
	minSetups   = 5
	maxSetups   = 15
	setupBudget = 2 * time.Second
)

// result is what one workload run reports.
type result struct {
	Workload  string             `json:"workload"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"` // first few reasons
	Samples   int                `json:"samples"`
	WindowS   float64            `json:"window_s"`
	LagP95Ms  float64            `json:"sched_lag_p95_ms"` // of the untraced window
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	// SpanSelfMs is the traced run's self time summed per span name.
	SpanSelfMs map[string]float64 `json:"span_self_ms,omitempty"`
}

// bench holds the state shared by the set-ups and windows of one workload
// run.
type bench struct {
	cfg      config
	w        *workload
	db       []*seq.Sequence
	residues int64
	dir      string    // work directory, removed when the run ends
	setups   []float64 // seconds each completed set-up took
}

// runWorkload runs one workload end to end: repeated set-ups, the
// untraced window, verification, and with cfg.trace the traced window and
// the layer replays.
func runWorkload(ctx context.Context, cfg config, w *workload) (*result, error) {
	if cfg.guards && runtime.NumCPU() < minCores {
		return nil, fmt.Errorf("guard: %d CPU, need %d: the server's two engines and the generator would share one core", runtime.NumCPU(), minCores)
	}
	db, err := hybridsw.GenerateDatabase(dbProfile, cfg.scale, cfg.seed)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(outDir, "run-"+w.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	b := &bench{cfg: cfg, w: w, db: db, dir: dir}
	for _, d := range db {
		b.residues += int64(d.Len())
	}

	// Extra set-ups, each on a fresh directory, before the one the window
	// runs on: at least minSetups in all, and more of a cheap set-up until
	// setupBudget is spent, because a 20 ms set-up repeats less well than a
	// 300 ms one.
	var spent time.Duration
	for i := 1; i < maxSetups && (i < minSetups || spent < setupBudget); i++ {
		start := time.Now()
		srv, _, err := b.setUp(ctx)
		if err != nil {
			return nil, err
		}
		srv.stop()
		spent += time.Since(start)
	}
	plain, err := b.window(ctx, nil)
	if err != nil {
		return nil, err
	}
	res := &result{
		Workload:  w.Name,
		Attempted: len(plain.recs) + len(plain.audits),
		Failed:    plain.failed(),
		Samples:   len(plain.ok()),
		WindowS:   plain.seconds(),
		LagP95Ms:  plain.lagP95(),
	}
	for _, recs := range [][]record{plain.recs, plain.audits} {
		for i := range recs {
			if f := recs[i].failure; f != "" && len(res.Failures) < 5 {
				res.Failures = append(res.Failures, f)
			}
		}
	}
	res.EndToEnd = endToEndMetrics(plain, b.setups)
	if !cfg.trace {
		return res, nil
	}

	// The traced run repeats the same request list on a fresh server.
	rec := &recorder{}
	traced, err := b.window(ctx, rec)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, m := range perLayer {
		out[m.Name] = 0
	}
	layerMetrics(traced, rec, out)
	perRequest := func(w *window) float64 { return ratio(w.seconds(), float64(len(w.recs))) }
	out["trace.overhead_share"] = ratio(perRequest(traced)-perRequest(plain), perRequest(plain))
	rp := &replayer{w: w, db: db, residues: b.residues, dir: dir, rec: rec, out: out}
	g := newGenerator(w, db, cfg.seed)
	for i := 0; i < sampleCycles; i++ {
		rp.sample = append(rp.sample, w.cycle(g)...)
	}
	rp.cycle = rp.sample[:len(rp.sample)/sampleCycles]
	if err := rp.run(ctx); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	budgetMetrics(w, traced, res.EndToEnd, out)
	res.PerLayer = out
	res.SpanSelfMs = selfByName(rec.spans)
	if err := b.writeTrace(traced, rec); err != nil {
		return nil, err
	}
	return res, nil
}

// setUp is the timed set-up: write the database, start swserve, wait for
// /readyz, and get one warm-up request answered. It returns the running
// server and the client whose connection the warm-up opened.
func (b *bench) setUp(ctx context.Context) (*server, *http.Client, error) {
	start := time.Now()
	dir := filepath.Join(b.dir, fmt.Sprintf("setup%d", len(b.setups)))
	if err := os.Mkdir(dir, 0o755); err != nil {
		return nil, nil, err
	}
	dbPath := filepath.Join(dir, "db.fasta")
	if err := fasta.WriteFile(dbPath, b.db); err != nil {
		return nil, nil, err
	}
	srv, err := startServer(ctx, b.cfg.bin, dbPath, dir, b.w)
	if err != nil {
		return nil, nil, err
	}
	if err := srv.waitReady(ctx); err != nil {
		srv.stop()
		return nil, nil, err
	}
	conns := 1 // closed loop: one client, one connection
	if b.w.Rate > 0 {
		conns = openLoopInFlight
	}
	cl := newClient(conns)
	warm := newGenerator(b.w, b.db, b.cfg.seed+1<<40)
	req := warm.request("warmup", "", warm.plant(warmUpLen))
	if r := send(ctx, cl, srv.url, &req, time.Now(), nil); r.err != nil || r.status != 200 {
		srv.stop()
		return nil, nil, fmt.Errorf("warm-up request: status %d, err %v, body %.200s", r.status, r.err, r.body)
	}
	b.setups = append(b.setups, time.Since(start).Seconds())
	return srv, cl, nil
}

// window runs one timed window on a fresh set-up: the requests, the
// server-side readings, the audit requests, then (server stopped) the
// verification. With a recorder it is the traced window.
func (b *bench) window(ctx context.Context, rec *recorder) (*window, error) {
	srv, cl, err := b.setUp(ctx)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	g := newGenerator(b.w, b.db, b.cfg.seed)
	length := time.Duration(b.cfg.seconds * float64(time.Second))
	var arrivals []request
	if b.w.Rate > 0 {
		arrivals = g.arrivals(length)
	}
	win := &window{dbResidues: b.residues}
	if win.varz0, err = srv.varz(ctx); err != nil {
		return nil, err
	}
	cpu0, _, err := srv.procUsage()
	if err != nil {
		return nil, err
	}

	win.start = time.Now()
	if b.w.Rate > 0 {
		win.recs = runOpen(ctx, cl, srv.url, arrivals, rec)
	} else {
		win.recs = runClosed(ctx, cl, srv.url, g, length, rec)
	}
	win.end = time.Now()

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if !srv.alive() {
		return nil, fmt.Errorf("guard: swserve exited during the window (see %s)", srv.log.Name())
	}
	cpu1, rss, err := srv.procUsage()
	if err != nil {
		return nil, err
	}
	win.cpuSeconds, win.peakRSSMB = cpu1-cpu0, rss
	if win.varz1, err = srv.varz(ctx); err != nil {
		return nil, err
	}
	if win.jobs, err = srv.jobs(ctx); err != nil {
		return nil, err
	}
	// Two fresh full-mode queries whose whole top-k is checked against a
	// brute-force scan, whatever mode the workload itself uses.
	audits := make([]request, auditCount)
	for i := range audits {
		audits[i] = g.audit()
		win.audits = append(win.audits, send(ctx, cl, srv.url, &audits[i], time.Now(), nil))
	}
	srv.stop()
	win.answers = newVerifier(b.db).verify(win.recs, win.audits)

	if b.cfg.guards {
		if d := win.end.Sub(win.start); d < minWindow {
			return nil, fmt.Errorf("guard: the timed window lasted %v, under %v", d, minWindow)
		}
		if lag := win.lagP95(); lag > maxLagP95 {
			return nil, fmt.Errorf("guard: the generator sent late (p95 %.1f ms > %.0f ms), so latencies from the due time are void", lag, maxLagP95)
		}
	}
	if len(win.recs) == 0 {
		return nil, errors.New("the window sent no request")
	}
	return win, nil
}

// writeTrace writes the traced window's per-request rows and every span.
func (b *bench) writeTrace(win *window, rec *recorder) error {
	rows := make([]row, len(win.recs))
	for i := range win.recs {
		r := &win.recs[i]
		rows[i] = row{ID: r.req.Seq, Class: r.req.Class, Tenant: r.req.Tenant,
			Due: r.due.UnixNano(), Sent: r.sent.UnixNano(), Done: r.done.UnixNano(),
			Status: r.status, Bytes: len(r.body), Cells: r.req.residues() * b.residues, Error: r.failure}
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", b.w.Name, b.cfg.seed))
	if err := writeJSONLines(base+"-rows.jsonl", rows); err != nil {
		return err
	}
	return writeJSONLines(base+"-spans.jsonl", rec.spans)
}
