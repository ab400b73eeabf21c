// Command swserve exposes the hybrid Smith-Waterman search engine as a
// small HTTP/JSON service over a resident database.
//
// Usage:
//
//	swserve -db db.fasta -listen :8080 -sse 2 -jobs-dir /var/lib/swserve
//
// Endpoints:
//
//	GET    /healthz           liveness and uptime
//	GET    /readyz            readiness: backend kind and per-shard health; 503
//	                          while draining or when a shard has no live replica
//	GET    /database          database name/size
//	GET    /metrics           Prometheus text exposition (scheduler, wire, slave, jobs, HTTP)
//	GET    /varz              the same metrics as one JSON document
//	POST   /search            {"queries_fasta": ">q\nACDE...", "top_k": 5, "align": true}
//	                          add "mode": "filtered" (+ filter_k/filter_margin) to run
//	                          each database-range task as a k-mer seed-table
//	                          prefilter plus an SW rescore of its candidate windows
//	POST   /align             {"a": "MKVL...", "b": "MKIL..."} (local alignment)
//	POST   /jobs              same payload as /search; returns 202 + job id
//	GET    /jobs              list jobs (optionally ?state=queued|running|done|failed|canceled)
//	GET    /jobs/{id}         poll one job (per-shard cells/total_cells while it runs)
//	GET    /jobs/{id}/result  fetch a finished job's search response
//	DELETE /jobs/{id}         cancel a queued or running job
//
// Searches flow through the job subsystem: a bounded queue with admission
// control (-queue, -executors), singleflight coalescing, repeats answered
// from retained finished jobs whose held result bodies -cache-bytes
// budgets, and — with -jobs-dir — a durable store so queued jobs survive a
// restart.
//
// Multi-tenancy: requests carry a tenant (X-Tenant header or the "tenant"
// body field). The queue is fair across tenants, charging each dequeue its
// dominant resource share over queries and residues (DRF), and -tenants
// sets per-tenant weights and outstanding-job quotas:
//
//	swserve -db db.fasta -tenants "alice:2:0,bob:1:4"
//
// gives alice twice bob's share and caps bob at 4 outstanding jobs
// (over-quota submissions get 429 with a backlog-scaled Retry-After). A
// weight must be a finite number >= 0. -tenant-policy accepts only "drf",
// the one policy, or nothing.
//
// Every search runs on one long-lived engine fleet (internal/cluster).
// -backend=local is its one-shard shape: the -gpus and -sse engines all scan
// the whole database. With -backend=cluster the database is partitioned
// into -shards contiguous shards, each scanned by -replicas CPU engines
// under its own master-protocol job, and per-query top-k hits are merged
// with deterministic tie-breaking — the ranking does not depend on the
// shard count, and a single replica crash mid-job is absorbed by the
// shard's survivor.
//
// SIGINT/SIGTERM starts a graceful shutdown: the listener closes, requests
// and running jobs in flight get -drain to finish (past the deadline a
// running job is aborted and re-queued for the next boot), then the
// process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	hybridsw "repro"
	"repro/internal/cluster"
	"repro/internal/farrar"
	"repro/internal/fasta"
	"repro/internal/httpapi"
	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/seq"
	"repro/internal/seqio"
)

func main() {
	var (
		dbPath = flag.String("db", "", "database FASTA or packed (.swpkd) file")
		listen = flag.String("listen", ":8080", "HTTP listen address")
		gpus   = flag.Int("gpus", 0, "GPU engines (the CPU kernel registered as GPU)")
		sse    = flag.Int("sse", 2, "SSE-core engines")
		policy = flag.String("policy", "PSS", "default allocation policy")
		adjust = flag.Bool("adjust", true, "enable the workload adjustment mechanism")
		drain  = flag.Duration("drain", 15*time.Second, "graceful-shutdown deadline for in-flight requests")
		quiet  = flag.Bool("quiet", false, "suppress the per-request access log")

		backend  = flag.String("backend", "local", `job execution backend: "local" (in-process engines) or "cluster" (sharded scatter-gather fleet)`)
		shards   = flag.Int("shards", 4, "cluster backend: contiguous database shards")
		replicas = flag.Int("replicas", 2, "cluster backend: replica engines per shard")

		jobsDir     = flag.String("jobs-dir", "", "directory for the durable job store (empty: in-memory only)")
		executors   = flag.Int("executors", 0, "job executor-pool size (0: default, negative: none)")
		queueDepth  = flag.Int("queue", 0, "max queued jobs before 429 (0: default)")
		cacheBytes  = flag.Int64("cache-bytes", 0, "budget in bytes for result bodies held on finished jobs (0: default, negative: hold only bodies still owed to a caller)")
		maxQueries  = flag.Int("max-queries", 0, "per-request query-count cap (0: default, negative: uncapped)")
		maxResidues = flag.Int64("max-residues", 0, "per-request total-residue cap (0: default, negative: uncapped)")
		maxTopK     = flag.Int("max-topk", 0, "per-request top_k cap (0: default, negative: uncapped)")

		tenantPolicy = flag.String("tenant-policy", "", `multi-tenant dequeue policy: only "drf", the default`)
		tenantSpecs  = flag.String("tenants", "", `per-tenant overrides as "name:weight:maxOutstanding,..." (e.g. "alice:2:0,bob:1:4"; 0 = unlimited)`)
	)
	flag.Parse()
	if *dbPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	var db []*seq.Sequence
	var err error
	if strings.HasSuffix(*dbPath, ".swpkd") {
		db, _, err = seqio.ReadPacked(*dbPath)
	} else {
		db, err = fasta.ReadFile(*dbPath)
	}
	if err != nil {
		fail("%v", err)
	}
	platform := hybridsw.Platform{
		GPUs:     *gpus,
		SSECores: *sse,
		Policy:   *policy,
		Adjust:   *adjust,
	}
	var fleet *cluster.Fleet
	switch jobs.Backend(*backend) {
	case jobs.BackendLocal:
	case jobs.BackendCluster:
		// Share one registry between the fleet's cluster_* families and the
		// server's HTTP/jobs families, so /metrics shows the whole stack.
		platform.Registry = metrics.NewRegistry()
		fleet, err = cluster.New(cluster.Config{
			DB:       db,
			Shards:   *shards,
			Replicas: *replicas,
			Registry: platform.Registry,
		})
		if err != nil {
			fail("%v", err)
		}
	default:
		fail("unknown -backend %q (want local or cluster)", *backend)
	}
	if *tenantPolicy != "" && *tenantPolicy != "drf" {
		fail("unknown -tenant-policy %q (want drf)", *tenantPolicy)
	}
	tenants, err := parseTenants(*tenantSpecs)
	if err != nil {
		fail("%v", err)
	}
	srv, err := httpapi.NewWithOptions(*dbPath, db, platform, httpapi.Options{
		Fleet: fleet,
		Limits: httpapi.Limits{
			MaxQueries:  *maxQueries,
			MaxResidues: *maxResidues,
			MaxTopK:     *maxTopK,
		},
		Jobs: jobs.Config{
			Dir:        *jobsDir,
			Executors:  *executors,
			MaxQueue:   *queueDepth,
			CacheBytes: *cacheBytes,
			Tenants:    tenants,
		},
	})
	if err != nil {
		fail("%v", err)
	}
	if !*quiet {
		srv.Log = log.New(os.Stderr, "swserve: ", log.LstdFlags)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	hs := &http.Server{Addr: *listen, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Printf("swserve: %d sequences loaded from %s; %s kernel; listening on %s\n", len(db), *dbPath, farrar.ISA(), *listen)

	select {
	case err := <-errc:
		fail("%v", err)
	case <-ctx.Done():
		stop() // a second signal kills immediately
		fmt.Fprintf(os.Stderr, "swserve: signal received, draining for up to %s\n", *drain)
		// Flip /readyz to 503 first, so load balancers stop routing here
		// while in-flight requests finish.
		srv.SetDraining(true)
		sdCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := hs.Shutdown(sdCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			fail("shutdown: %v", err)
		}
		// Drain the job subsystem on the same deadline: running jobs finish
		// or are aborted and re-queued for the next boot, and the durable
		// store is compacted and closed.
		if err := srv.Close(sdCtx); err != nil {
			fail("jobs shutdown: %v", err)
		}
		fmt.Println("swserve: shut down cleanly")
	}
}

// parseTenants parses the -tenants flag: comma-separated
// "name[:weight[:maxOutstanding]]" entries. Weight 0 means the default 1
// (jobs.New rejects a negative or non-finite one); maxOutstanding 0 means
// unlimited.
func parseTenants(s string) (map[string]jobs.TenantConfig, error) {
	if s == "" {
		return nil, nil
	}
	out := map[string]jobs.TenantConfig{}
	for _, entry := range strings.Split(s, ",") {
		parts := strings.Split(strings.TrimSpace(entry), ":")
		name := parts[0]
		if name == "" {
			return nil, fmt.Errorf("-tenants: empty tenant name in %q", entry)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("-tenants: duplicate tenant %q", name)
		}
		var cfg jobs.TenantConfig
		if len(parts) > 1 && parts[1] != "" {
			w, err := strconv.ParseFloat(parts[1], 64)
			if err != nil {
				return nil, fmt.Errorf("-tenants: bad weight %q for %q", parts[1], name)
			}
			cfg.Weight = w
		}
		if len(parts) > 2 && parts[2] != "" {
			n, err := strconv.Atoi(parts[2])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("-tenants: bad maxOutstanding %q for %q", parts[2], name)
			}
			cfg.MaxOutstanding = n
		}
		if len(parts) > 3 {
			return nil, fmt.Errorf("-tenants: too many fields in %q (want name:weight:maxOutstanding)", entry)
		}
		out[name] = cfg
	}
	return out, nil
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "swserve: "+format+"\n", args...)
	os.Exit(1)
}
