// Command swload is the repository's serving benchmark: it builds
// cmd/swserve, starts it as a child process per workload, drives POST
// /search over loopback, verifies the answers against the scalar
// reference, and prints every metric by name with its unit. The workloads,
// the metrics and how to read them are in bench/README.md; BENCHMARK.json
// at the repository root names the same metrics with their bounds.
//
// Usage, from the repository root:
//
//	go run ./bench/swload -all                      # the four workloads, end-to-end metrics
//	go run ./bench/swload -all -trace 1             # plus the traced run and the per-layer metrics
//	go run ./bench/swload -workload serve_mix -seed 2 -seconds 60
//	go run ./bench/swload -compare old.json new.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// runTimeout bounds one workload run, set-ups and replays included.
const runTimeout = 170 * time.Second

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "run one workload and end with the result as one JSON line")
		all     = flag.Bool("all", false, "run every workload and write the result file")
		seed    = flag.Int64("seed", 1, "workload seed: database, request list and arrival schedule (2 is held out for later claims)")
		seconds = flag.Float64("seconds", 20, "length of the timed window")
		trace   = flag.Int("trace", 0, "1 adds the traced run: spans, per-layer metrics and the layer replays")
		compare = flag.Bool("compare", false, "compare two result files: swload -compare old.json new.json")
		out     = flag.String("out", "", "result file of -all (default bench/out/result-seed<N>.json)")
	)
	flag.Parse()
	switch {
	case *compare && flag.NArg() == 2:
		return compareFiles(flag.Arg(0), flag.Arg(1))
	case *all == (*name != "") || *compare || flag.NArg() != 0 || *seconds <= 0 || *trace < 0 || *trace > 1:
		flag.Usage()
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	bin, err := buildServer(ctx)
	if err != nil {
		return fail(err)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, scale: dbScale, guards: true, bin: bin}

	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			return fail(err)
		}
		res, err := runOne(ctx, cfg, w)
		if err != nil {
			return fail(err)
		}
		printResult(res)
		return printDriverLine(res, cfg.trace)
	}

	file := resultFile{Seed: *seed, Seconds: *seconds, Trace: cfg.trace}
	code := 0
	for i := range workloads {
		res, err := runOne(ctx, cfg, &workloads[i])
		if err != nil {
			return fail(err)
		}
		printResult(res)
		if res.Failed > 0 {
			code = 1
		}
		file.Workloads = append(file.Workloads, *res)
	}
	path := *out
	if path == "" {
		path = filepath.Join(outDir, fmt.Sprintf("result-seed%d.json", *seed))
	}
	if err := file.write(path); err != nil {
		return fail(err)
	}
	fmt.Printf("\nresults written to %s\n", path)
	return code
}

func runOne(ctx context.Context, cfg config, w *workload) (*result, error) {
	ctx, cancel := context.WithTimeout(ctx, runTimeout)
	defer cancel()
	res, err := runWorkload(ctx, cfg, w)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	return res, nil
}

// fail reports why no result is printed.
func fail(err error) int {
	fmt.Fprintf(os.Stderr, "swload: no results: %v\n", err)
	return 1
}

// printResult prints every metric of one workload by name, with its unit.
func printResult(r *result) {
	fmt.Printf("\n== %s: %d requests in a %.2f s window (%d verified, sent %.2f ms late at p95) + %d audits; %d failed\n",
		r.Workload, r.Attempted-auditCount, r.WindowS, r.Samples, r.LagP95Ms, auditCount, r.Failed)
	for _, f := range r.Failures {
		fmt.Printf("   FAILED: %s\n", f)
	}
	for _, m := range endToEnd {
		fmt.Printf("   %-34s %14.4f %s\n", m.Name, r.EndToEnd[m.Name], m.Unit)
	}
	if r.PerLayer == nil {
		return
	}
	fmt.Println("   -- per layer (traced run) --")
	for _, m := range perLayer {
		fmt.Printf("   %-34s %14.4f %s\n", m.Name, r.PerLayer[m.Name], m.Unit)
	}
	fmt.Println("   -- self time by span name, summed over the traced run --")
	names := make([]string, 0, len(r.SpanSelfMs))
	for name := range r.SpanSelfMs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("   %-34s %14.1f ms\n", name, r.SpanSelfMs[name])
	}
}

// printDriverLine ends the output with the one JSON object a benchmark
// driver reads: the end-to-end metrics of an untraced run, the per-layer
// metrics of a traced one.
func printDriverLine(r *result, traced bool) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, values := endToEnd, r.EndToEnd
	if traced {
		defs, values = perLayer, r.PerLayer
	}
	metrics := make(map[string]value, len(defs))
	for _, m := range defs {
		metrics[m.Name] = value{Value: values[m.Name], Unit: m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, metrics})
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	if r.Failed > 0 {
		return 1
	}
	return 0
}

// resultFile is what -all writes and -compare reads.
type resultFile struct {
	Seed      int64    `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Trace     bool     `json:"trace"`
	Workloads []result `json:"workloads"`
}

func (f *resultFile) write(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Workloads) == 0 {
		return nil, errors.New(path + ": no workloads in result file")
	}
	return &f, nil
}
