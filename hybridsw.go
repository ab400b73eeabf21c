// Package hybridsw is a Go reproduction of "Biological Sequence Comparison
// on Hybrid Platforms with Dynamic Workload Adjustment" (Mendonça & de
// Melo, IEEE IPDPSW 2013).
//
// It provides, end to end:
//
//   - exact Smith-Waterman database search with the adapted Farrar striped
//     kernel and its inter-sequence lanes, the layout of CUDASW++ 2.0's
//     inter-task kernel, run by CPU and GPU slaves alike;
//   - the paper's master/slave task execution environment with the SS and
//     PSS allocation policies, the Fixed/WFixed baselines, and the dynamic
//     workload adjustment mechanism (task replication to idle slaves);
//   - a calibrated virtual-time platform that reproduces the paper's
//     evaluation (Tables III-V, Figures 5-8) without the 2013 GPU testbed.
//
// # Quick start
//
//	db := hybridsw.GenerateDatabase("UniProtKB/SwissProt", 0.0001, 1)
//	queries := hybridsw.GenerateQueries(db, 4, 100, 500, 2)
//	report, err := hybridsw.Search(queries, db, hybridsw.Platform{
//		GPUs: 1, SSECores: 2, Policy: "PSS", Adjust: true, TopK: 5,
//	})
//
// Search runs a real computation on the calling machine (the "GPUs" are
// engines that scan with the CPU kernel but register as GPUs): it builds
// the one-shard engine fleet the Platform describes and runs the search on
// it (internal/cluster is where every in-process search executes; this
// package only translates a Platform into its terms). There a query is cut into database-range
// tasks, so even a single query keeps every engine of the Platform busy and
// the workload adjustment mechanism replicates only its tail range. A
// filtered search (Platform.Mode "filtered") runs on the same tasks: each
// prefilters its range with the query's k-mer seeds and rescores the
// candidate windows on the same engine.
// Simulate runs the same scheduler against the calibrated virtual-time
// platform to predict the behaviour of the paper's 4-GPU/8-core testbed,
// at the paper's grain of one task per query; see also cmd/benchtables.
package hybridsw

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/master"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/prefilter"
	"repro/internal/sched"
	"repro/internal/score"
	"repro/internal/seq"
	"repro/internal/stats"
	"repro/internal/sw"
	"repro/internal/wire"
)

// Sequence is a named biological sequence.
type Sequence = seq.Sequence

// Scheme bundles a substitution matrix with gap penalties.
type Scheme = score.Scheme

// Alignment is a traceback alignment (see Align).
type Alignment = sw.Alignment

// Hit is one query-vs-database-sequence score.
type Hit = wire.Hit

// QueryResult is the merged search outcome for one query.
type QueryResult = master.QueryResult

// FilterSpec parameterizes a filtered search's prefilter (k-mer seed
// length, stride, window margin, pattern budget). The zero value uses
// the prefilter defaults.
type FilterSpec = prefilter.Spec

// FilterStats is a filtered search's accounting: residues scanned vs
// admitted, candidate windows, and rescored vs full-scan DP cells.
type FilterStats = master.FilterStats

// DefaultScheme returns the paper's scoring: BLOSUM62, gap open 10,
// gap extend 2.
func DefaultScheme() Scheme { return score.DefaultProtein() }

// Score computes the optimal Smith-Waterman local alignment score.
func Score(query, target []byte, s Scheme) int { return sw.Score(query, target, s) }

// Align computes an optimal local alignment with full traceback.
func Align(query, target []byte, s Scheme) *Alignment { return sw.Align(query, target, s) }

// GenerateDatabase builds a deterministic synthetic database with the size
// profile of one of the paper's Table II databases, named as the paper does
// ("Ensembl Dog Proteins", "UniProtKB/SwissProt", ...), scaled by the given
// factor.
func GenerateDatabase(name string, scale float64, seed int64) ([]*Sequence, error) {
	p, err := dataset.ProfileByName(name)
	if err != nil {
		return nil, err
	}
	if scale > 0 && scale != 1 {
		p = p.Scale(scale)
	}
	return dataset.Generate(p, seed), nil
}

// GenerateQueries derives n queries with lengths equally distributed in
// [minLen, maxLen] from database content, the paper's query-selection rule.
func GenerateQueries(db []*Sequence, n, minLen, maxLen int, seed int64) []*Sequence {
	return dataset.Queries(db, n, minLen, maxLen, seed)
}

// Platform describes the local hybrid platform for Search.
type Platform struct {
	GPUs     int    // GPU engines: the CPU kernel under a GPU label
	SSECores int    // CPU engines
	Policy   string // "SS", "PSS" (default), "Fixed", "WFixed"
	Adjust   bool   // enable the workload adjustment mechanism
	Omega    int    // PSS history window; 0 = default
	TopK     int    // hits returned per query; 0 = all
	Scheme   Scheme // zero value = DefaultScheme

	// AlignBest ships the traceback alignment of each query's best hit.
	AlignBest bool

	// Mode selects the search: "" or "full" runs the exhaustive scan;
	// "filtered" runs, on each database-range task, a k-mer seed
	// prefilter of the range and then a Smith-Waterman rescore restricted
	// to its candidate windows. Every engine, GPU or CPU, runs both.
	Mode string
	// Filter parameterizes the prefilter in filtered mode; the zero value
	// uses the prefilter defaults.
	Filter FilterSpec

	// Registry, when non-nil, receives scheduler, wire, slave and kernel
	// metrics from every Search run (see internal/metrics). Repeated
	// Searches on the same registry accumulate into the same families.
	Registry *metrics.Registry
}

// Report is the outcome of a Search: per-query results, wall time, the
// job's DP cell count (query×database for the full scan, the smaller
// rescored total in filtered mode) and, in filtered mode, the filter's
// accounting. Shards has the one entry of Search's one-shard
// fleet.
type Report = cluster.Report

// NewFleet builds the engine set Search runs on: the one-shard fleet whose
// replicas are p's GPUs and SSECores engines over db. A server that
// answers many searches over one database (internal/httpapi) builds it
// once and passes p.Params() to each Fleet.SearchContext.
func NewFleet(db []*Sequence, p Platform) (*cluster.Fleet, error) {
	if p.GPUs+p.SSECores == 0 {
		p.SSECores = 1
	}
	return cluster.New(cluster.Config{
		DB:       db,
		Shards:   1,
		GPUs:     p.GPUs,
		Replicas: p.SSECores,
		Scheme:   p.Scheme,
		Registry: p.Registry,
	})
}

// Params are p's per-search settings in the fleet's terms.
func (p Platform) Params() cluster.Params {
	return cluster.Params{
		Policy:    p.Policy,
		Adjust:    p.Adjust,
		Omega:     p.Omega,
		TopK:      p.TopK,
		AlignBest: p.AlignBest,
		Mode:      p.Mode,
		Filter:    p.Filter,
	}
}

// Search compares every query against the database on an in-process hybrid
// platform: the master/slave environment runs with real engines on real
// data, wall-clock time, and the selected allocation policy.
func Search(queries, db []*Sequence, p Platform) (*Report, error) {
	return SearchContext(context.Background(), queries, db, p)
}

// SearchContext is Search with cancellation: when ctx is cancelled the
// slaves stop asking for new tasks and every in-flight task is aborted, so
// a cancelled search releases its CPU promptly instead of finishing the
// whole job. It returns ctx.Err() when cancelled before the job completed.
func SearchContext(ctx context.Context, queries, db []*Sequence, p Platform) (*Report, error) {
	f, err := NewFleet(db, p)
	if err != nil {
		return nil, err
	}
	return f.SearchContext(ctx, queries, p.Params())
}

// HitEValue returns the Karlin-Altschul E-value of a raw hit score for a
// query of queryLen residues against a database of dbResidues total
// residues, and whether exact statistical parameters were tabulated for the
// scheme (otherwise a conservative fallback is used; exact=false with an
// unusable result means the scheme has no statistics at all).
func HitEValue(s Scheme, raw, queryLen int, dbResidues int64) (evalue float64, exact bool) {
	p, exact := stats.Lookup(s)
	if p.Validate() != nil {
		return 0, false
	}
	return p.EValue(raw, queryLen, dbResidues), exact
}

// SimResult is the outcome of a virtual-time Simulate run.
type SimResult = platform.Result

// Simulate predicts the behaviour of the paper's testbed: the same
// scheduler code runs against the calibrated discrete-event platform
// (GTX 580 GPUs, 2.71-GCUPS SSE cores) for the named Table II database and
// the paper's 40-query workload.
func Simulate(database string, gpus, sseCores int, policy string, adjust bool, seed int64) (*SimResult, error) {
	p, err := dataset.ProfileByName(database)
	if err != nil {
		return nil, err
	}
	pol, err := sched.NewPolicy(policy)
	if err != nil {
		return nil, err
	}
	lengths := dataset.QueryLengths(40, 100, 5000)
	tasks := make([]sched.Task, len(lengths))
	for i, n := range lengths {
		tasks[i] = sched.Task{QueryID: fmt.Sprintf("Q%02d", i), Cells: int64(n) * p.Residues()}
	}
	return platform.Run(platform.Experiment{
		Tasks:       tasks,
		PEs:         platform.Hybrid(gpus, sseCores),
		Policy:      pol,
		Adjust:      adjust,
		CommLatency: 200 * time.Microsecond,
		NotifyEvery: 500 * time.Millisecond,
		Seed:        seed,
	})
}
