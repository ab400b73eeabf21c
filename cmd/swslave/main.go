// Command swslave runs one slave of the distributed task execution
// environment: it loads the database, connects to the master, registers,
// and executes tasks until the job finishes. Both engines scan with the
// adapted Farrar kernel; -engine gpu registers the slave as a GPU, which
// the master hands Smith-Waterman tasks only.
//
// Usage:
//
//	swslave -db db.fasta -master host:7777 -engine sse -name sse1
//	swslave -db db.fasta -master host:7777 -engine gpu -name gpu1
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/fasta"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/score"
	"repro/internal/seq"
	"repro/internal/seqio"
	"repro/internal/slave"
	"repro/internal/wire"
)

func main() {
	var (
		dbPath    = flag.String("db", "", "database FASTA file (resident on this node)")
		addr      = flag.String("master", "127.0.0.1:7777", "master address")
		engine    = flag.String("engine", "sse", `engine: "sse" (adapted Farrar) or "gpu"`)
		name      = flag.String("name", "", "slave name (default: engine type + pid)")
		topK      = flag.Int("top", 0, "hits per task shipped to the master (0 = all)")
		notify    = flag.Duration("notify", 500*time.Millisecond, "progress notification interval")
		declare   = flag.Float64("declare", 0, "declared speed in cells/s (for the WFixed baseline)")
		retry     = flag.Int("retry", slave.DefaultMaxRetries, "consecutive reconnect attempts after a lost master before giving up (0 disables reconnection)")
		ioTimeout = flag.Duration("io-timeout", 30*time.Second, "per-call network deadline; a hung master trips it and triggers reconnection (0 disables)")
		metricsA  = flag.String("metrics", "", "serve GET /metrics and /varz on this address (empty disables)")
	)
	flag.Parse()
	if *dbPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	db, err := loadDB(*dbPath)
	if err != nil {
		fail("%v", err)
	}
	if *name == "" {
		*name = fmt.Sprintf("%s-%d", *engine, os.Getpid())
	}

	if *engine != "sse" && *engine != "gpu" {
		fail("unknown engine %q (want sse or gpu)", *engine)
	}
	eng, err := slave.NewFarrarEngine(*name, score.DefaultProtein(), db, *declare)
	if err != nil {
		fail("%v", err)
	}
	if *engine == "gpu" {
		eng = eng.Replica(*name, sched.KindGPU)
	}
	fmt.Printf("slave %s: database %s loaded (%d sequences, %d residues)\n",
		*name, *dbPath, len(db), eng.DatabaseResidues())

	var reg *metrics.Registry // nil without -metrics: the bundles below are no-ops
	if *metricsA != "" {
		reg = metrics.NewRegistry()
		mux := http.NewServeMux()
		mux.Handle("GET /metrics", reg.Handler())
		mux.Handle("GET /varz", reg.VarzHandler())
		go func() {
			if err := http.ListenAndServe(*metricsA, mux); err != nil {
				fmt.Fprintf(os.Stderr, "swslave: metrics listener: %v\n", err)
			}
		}()
		fmt.Printf("slave %s: metrics on http://%s/metrics\n", *name, *metricsA)
	}
	slaveMet, wireMet := slave.NewMetrics(reg), wire.NewMetrics(reg)

	dial := func() (wire.Caller, error) {
		c, err := wire.Dial(*addr)
		if err != nil {
			return nil, err
		}
		c.Timeout = *ioTimeout
		return wire.Meter(c, wireMet), nil
	}
	client, err := dial()
	if err != nil {
		fail("connecting to master: %v", err)
	}
	defer client.Close()
	opts := slave.Options{NotifyEvery: *notify, TopK: *topK, MaxRetries: *retry, Metrics: slaveMet}
	if *retry > 0 {
		// Retry with exponential backoff + jitter; each attempt re-dials
		// and re-registers, so the slave survives a master restart from
		// checkpoint and its own lease expiry after a stall.
		opts.Reconnect = dial
	}
	n, err := slave.Run(client, eng, opts)
	if err != nil {
		fail("%v", err)
	}
	fmt.Printf("slave %s: job done, executed %d task(s)\n", *name, n)
}

// loadDB reads either the packed binary format (by extension or magic) or
// FASTA.
func loadDB(path string) ([]*seq.Sequence, error) {
	if strings.HasSuffix(path, ".swpkd") {
		db, _, err := seqio.ReadPacked(path)
		return db, err
	}
	return fasta.ReadFile(path)
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "swslave: "+format+"\n", args...)
	os.Exit(1)
}
