// Package experiments reproduces every table and figure of the paper's
// evaluation (§V) on the calibrated virtual-time platform, plus the
// ablations DESIGN.md calls out. Each experiment is a deterministic
// function of its fixed seed; cmd/benchtables prints them and
// EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/dataset"
	"repro/internal/gcups"
	"repro/internal/platform"
	"repro/internal/sched"
)

// Standard parameters shared by all experiments (see DESIGN.md: calibrated
// once, never tuned per experiment).
const (
	NotifyEvery = 500 * time.Millisecond
	CommLatency = 200 * time.Microsecond
	Omega       = sched.DefaultOmega
	baseSeed    = 20130520 // IPDPS 2013 week; any fixed value works
)

// QueryLengths is the paper's query set: 40 sequences with lengths equally
// distributed from 100 to 5,000 residues.
func QueryLengths() []int { return dataset.QueryLengths(40, 100, 5000) }

// Tasks builds the very coarse-grained task set of one database experiment:
// one task per query, each costing |q| x database-residues cells. Query
// files are not sorted by length, so the order is a fixed, seeded shuffle
// of the 40 lengths — task sizes arrive unpredictably, which is precisely
// the situation the workload adjustment mechanism exists for (a slow slave
// drawing one of the biggest queries).
func Tasks(db dataset.Profile) []sched.Task {
	lengths := QueryLengths()
	rng := rand.New(rand.NewSource(baseSeed))
	rng.Shuffle(len(lengths), func(i, j int) { lengths[i], lengths[j] = lengths[j], lengths[i] })
	tasks := make([]sched.Task, len(lengths))
	for i, n := range lengths {
		tasks[i] = sched.Task{
			QueryID: fmt.Sprintf("Q%02d_len%d", i, n),
			Cells:   int64(n) * db.Residues(),
		}
	}
	return tasks
}

// Run is one measured cell of a table: a platform configuration against one
// database.
type Run struct {
	Config string
	DB     string
	Result *platform.Result
}

func runConfig(db dataset.Profile, pes []*platform.PE, adjust bool, policy sched.Policy, seed int64) (*platform.Result, error) {
	if policy == nil {
		policy = &sched.PSS{}
	}
	return platform.Run(platform.Experiment{
		Tasks:       Tasks(db),
		PEs:         pes,
		Policy:      policy,
		Adjust:      adjust,
		Omega:       Omega,
		CommLatency: CommLatency,
		NotifyEvery: NotifyEvery,
		Seed:        seed,
	})
}

// Table2 renders the database inventory (the paper's Table II) from the
// synthetic profiles.
func Table2() *gcups.Table {
	t := &gcups.Table{
		Title:  "Table II: genomic databases (synthetic profiles)",
		Header: []string{"Database", "Sequences", "Residues", "Mean len"},
	}
	for _, p := range dataset.TableII() {
		t.AddRow(p.Name, p.NumSeqs, p.Residues(), fmt.Sprintf("%.0f", p.MeanLen))
	}
	return t
}

// Table3 reproduces "Results for the SSE cores": 40 queries vs each
// database on 1, 2, 4 and 8 SSE cores (PSS + workload adjustment, as in all
// of §V-A).
func Table3() ([]Run, *gcups.Table, error) {
	return sweep("Table III: results for the SSE cores", func(n int) []*platform.PE {
		return platform.Hybrid(0, n)
	}, []int{1, 2, 4, 8}, func(n int) string { return fmt.Sprintf("%d SSE", n) })
}

// Table4 reproduces "Results for the GPUs": the same workload on 1, 2 and 4
// GPUs.
func Table4() ([]Run, *gcups.Table, error) {
	return sweep("Table IV: results for the GPUs", func(n int) []*platform.PE {
		return platform.Hybrid(n, 0)
	}, []int{1, 2, 4}, func(n int) string { return fmt.Sprintf("%d GPU", n) })
}

// hybridConfigs are Table V's columns.
var hybridConfigs = []struct {
	Name       string
	GPUs, SSEs int
}{
	{"1 GPU + 1 SSE", 1, 1},
	{"1 GPU + 2 SSE", 1, 2},
	{"1 GPU + 4 SSE", 1, 4},
	{"2 GPU + 4 SSE", 2, 4},
	{"4 GPU + 4 SSE", 4, 4},
}

// Table5 reproduces "Results for the GPUs and SSEs": the hybrid
// configurations against every database.
func Table5() ([]Run, *gcups.Table, error) {
	var runs []Run
	t := &gcups.Table{
		Title:  "Table V: results for the GPUs and SSEs (time s / GCUPS)",
		Header: []string{"Database"},
	}
	for _, c := range hybridConfigs {
		t.Header = append(t.Header, c.Name)
	}
	for _, db := range dataset.TableII() {
		row := []any{db.Name}
		for i, c := range hybridConfigs {
			res, err := runConfig(db, platform.Hybrid(c.GPUs, c.SSEs), true, nil, baseSeed+int64(i))
			if err != nil {
				return nil, nil, fmt.Errorf("%s / %s: %w", db.Name, c.Name, err)
			}
			runs = append(runs, Run{Config: c.Name, DB: db.Name, Result: res})
			row = append(row, fmt.Sprintf("%s / %.2f", gcups.Seconds(res.Makespan), res.GCUPS()))
		}
		t.AddRow(row...)
	}
	return runs, t, nil
}

// sweep runs one table: every database against a family of configurations.
func sweep(title string, build func(int) []*platform.PE, sizes []int, label func(int) string) ([]Run, *gcups.Table, error) {
	var runs []Run
	t := &gcups.Table{Title: title, Header: []string{"Database"}}
	for _, n := range sizes {
		t.Header = append(t.Header, label(n)+" time", label(n)+" GCUPS")
	}
	for _, db := range dataset.TableII() {
		row := []any{db.Name}
		for i, n := range sizes {
			res, err := runConfig(db, build(n), true, nil, baseSeed+int64(100*i))
			if err != nil {
				return nil, nil, fmt.Errorf("%s / %s: %w", db.Name, label(n), err)
			}
			runs = append(runs, Run{Config: label(n), DB: db.Name, Result: res})
			row = append(row, res.Makespan, res.GCUPS())
		}
		t.AddRow(row...)
	}
	return runs, t, nil
}

// HeadlineRun executes the paper's headline configuration — 4 GPUs + 4 SSE
// cores against SwissProt with PSS and the workload adjustment mechanism —
// and returns the raw result for trace export and ad-hoc analysis.
func HeadlineRun() (*platform.Result, error) {
	db, err := dataset.ProfileByName("UniProtKB/SwissProt")
	if err != nil {
		return nil, err
	}
	return runConfig(db, platform.Hybrid(4, 4), true, nil, baseSeed)
}
