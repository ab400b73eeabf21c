package experiments

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/gcups"
)

// meanBetween averages the GCUPS of the points of s with from <= T < to.
func meanBetween(s gcups.Series, from, to time.Duration) float64 {
	w := gcups.Series{Name: s.Name}
	for _, p := range s.Points {
		if p.T >= from && p.T < to {
			w.Points = append(w.Points, p)
		}
	}
	return w.Mean()
}

func TestTasksWorkload(t *testing.T) {
	lengths := QueryLengths()
	if len(lengths) != 40 || lengths[0] != 100 || lengths[39] != 5000 {
		t.Fatalf("query lengths = %d..%d (%d)", lengths[0], lengths[39], len(lengths))
	}
}

func TestFig5Anchors(t *testing.T) {
	res, err := Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.With.Makespan.Round(time.Millisecond); got != 14*time.Second {
		t.Errorf("with adjustment = %v, want the paper's 14s", got)
	}
	if got := res.Without.Makespan.Round(time.Millisecond); got != 18*time.Second {
		t.Errorf("without adjustment = %v, want the paper's 18s", got)
	}
	g := Gantt(res.With)
	if !strings.Contains(g, "GPU1") || !strings.Contains(g, "t20*") {
		t.Errorf("Gantt missing GPU replica marker:\n%s", g)
	}
}

func TestTable3SSEScalesNearLinearly(t *testing.T) {
	runs, table, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	if table == nil || len(table.Rows) != 5 {
		t.Fatalf("table rows = %d", len(table.Rows))
	}
	byKey := map[string]Run{}
	for _, r := range runs {
		byKey[r.Config+"|"+r.DB] = r
	}
	const sp = "UniProtKB/SwissProt"
	t1 := byKey["1 SSE|"+sp].Result.Makespan
	// Anchor: one SSE core vs SwissProt took the paper 7,190 s.
	if secs := t1.Seconds(); secs < 6500 || secs > 7900 {
		t.Errorf("1 SSE SwissProt = %.0f s, want ~7190", secs)
	}
	for _, n := range []int{2, 4, 8} {
		tn := byKey[sprintfConfig(n)+"|"+sp].Result.Makespan
		speedup := t1.Seconds() / tn.Seconds()
		if speedup < 0.85*float64(n) || speedup > float64(n)*1.05 {
			t.Errorf("%d SSE speedup = %.2f, want near-linear", n, speedup)
		}
	}
}

func sprintfConfig(n int) string {
	return map[int]string{1: "1 SSE", 2: "2 SSE", 4: "4 SSE", 8: "8 SSE"}[n]
}

func TestTable4GPUBehaviour(t *testing.T) {
	runs, _, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]Run{}
	for _, r := range runs {
		byKey[r.Config+"|"+r.DB] = r
	}
	const sp = "UniProtKB/SwissProt"
	// Near-linear GPU scaling on the big database.
	t1 := byKey["1 GPU|"+sp].Result.Makespan.Seconds()
	t4 := byKey["4 GPU|"+sp].Result.Makespan.Seconds()
	if speedup := t1 / t4; speedup < 3.2 || speedup > 4.2 {
		t.Errorf("4 GPU speedup on SwissProt = %.2f, want near-linear", speedup)
	}
	// Table IV's stated effect: SwissProt GCUPS is roughly double the
	// small-database GCUPS (per-task overheads amortize).
	gSp := byKey["4 GPU|"+sp].Result.GCUPS()
	gDog := byKey["4 GPU|Ensembl Dog Proteins"].Result.GCUPS()
	if ratio := gSp / gDog; ratio < 1.5 || ratio > 3.0 {
		t.Errorf("SwissProt/Dog GCUPS ratio = %.2f, want ~2", ratio)
	}
}

func TestTable5HybridAnchors(t *testing.T) {
	runs, _, err := Table5()
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]Run{}
	for _, r := range runs {
		byKey[r.Config+"|"+r.DB] = r
	}
	const sp = "UniProtKB/SwissProt"
	// Anchor: 4 GPU + 4 SSE finished SwissProt in 112 s.
	tBest := byKey["4 GPU + 4 SSE|"+sp].Result.Makespan.Seconds()
	if tBest < 95 || tBest > 130 {
		t.Errorf("4G+4S SwissProt = %.0f s, want ~112", tBest)
	}
	// Hybrid beats GPU-only on the big database...
	t4, _, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	gpuOnly := map[string]Run{}
	for _, r := range t4 {
		gpuOnly[r.Config+"|"+r.DB] = r
	}
	if gpuOnly["4 GPU|"+sp].Result.Makespan <= byKey["4 GPU + 4 SSE|"+sp].Result.Makespan {
		t.Errorf("hybrid (%v) not faster than GPU-only (%v) on SwissProt",
			byKey["4 GPU + 4 SSE|"+sp].Result.Makespan, gpuOnly["4 GPU|"+sp].Result.Makespan)
	}
	// ...while GPU-only stays competitive (within ~15%) on the small
	// databases, the paper's §V-A.3 observation.
	const dog = "Ensembl Dog Proteins"
	hyb := byKey["4 GPU + 4 SSE|"+dog].Result.Makespan.Seconds()
	gpu := gpuOnly["4 GPU|"+dog].Result.Makespan.Seconds()
	if hyb > gpu*1.5 {
		t.Errorf("hybrid on Dog = %.1f s vs GPU-only %.1f s: too far apart", hyb, gpu)
	}
}

func TestFig6AdjustmentGains(t *testing.T) {
	rows, table, err := Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 || table == nil {
		t.Fatalf("%d rows", len(rows))
	}
	byConfig := map[string]Fig6Row{}
	for _, r := range rows {
		byConfig[r.Config] = r
	}
	// Homogeneous configurations: negligible impact (within a few %).
	for _, c := range []string{"1 GPU", "2 GPU", "4 GPU"} {
		if g := byConfig[c].GainPercent; g < -5 || g > 10 {
			t.Errorf("%s gain = %.1f%%, want negligible", c, g)
		}
	}
	// Hybrid configurations: large gains (paper: 85.9% at 2G+4S, 207.2%
	// at 4G+4S; we require the same order of magnitude).
	if g := byConfig["2 GPU + 4 SSE"].GainPercent; g < 25 {
		t.Errorf("2G+4S gain = %.1f%%, want large (paper: 85.9%%)", g)
	}
	if g := byConfig["4 GPU + 4 SSE"].GainPercent; g < 80 {
		t.Errorf("4G+4S gain = %.1f%%, want very large (paper: 207.2%%)", g)
	}
	// Abstract anchor: the mechanism reduced total time by 57.2%.
	if r := byConfig["4 GPU + 4 SSE"].TimeReducePercent; r < 40 || r > 80 {
		t.Errorf("4G+4S time reduction = %.1f%%, want ~57%%", r)
	}
	// Hybrid with adjustment must beat GPU-only.
	if byConfig["4 GPU + 4 SSE"].With <= byConfig["4 GPU"].With {
		t.Error("4G+4S with adjustment should out-run 4 GPU alone")
	}
}

func TestFig7DedicatedTimeline(t *testing.T) {
	res, err := Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 4 {
		t.Fatalf("%d series", len(res.Series))
	}
	// All cores run near the calibrated 2.71 GCUPS with small jitter.
	for _, s := range res.Series {
		m := meanBetween(s, 0, res.Makespan-10*time.Second)
		if m < 2.3 || m > 3.1 {
			t.Errorf("%s mean = %.2f GCUPS, want ~2.71", s.Name, m)
		}
	}
}

func TestFig8LoadAdaptation(t *testing.T) {
	ded, err := Fig7()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Fig8()
	if err != nil {
		t.Fatal(err)
	}
	// Core 0's rate drops to less than half after t=60 s.
	s0 := loaded.Series[0]
	before := meanBetween(s0, 10*time.Second, 58*time.Second)
	after := meanBetween(s0, 62*time.Second, loaded.Makespan-10*time.Second)
	if after >= before*0.6 {
		t.Errorf("core 0: %.2f -> %.2f GCUPS, want a drop below half", before, after)
	}
	// Paper: wall-clock grew only 12.1% while ~15% of capacity vanished.
	// Accept a moderate band around that.
	growth := (loaded.Makespan.Seconds() - ded.Makespan.Seconds()) / ded.Makespan.Seconds() * 100
	if growth < 2 || growth > 25 {
		t.Errorf("non-dedicated growth = %.1f%%, want moderate (~12%%)", growth)
	}
}

func TestPolicyAblation(t *testing.T) {
	table, err := PolicyAblation(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 4 {
		t.Fatalf("%d rows", len(table.Rows))
	}
	out := table.String()
	for _, p := range []string{"SS", "PSS", "Fixed", "WFixed"} {
		if !strings.Contains(out, p) {
			t.Errorf("ablation missing %s:\n%s", p, out)
		}
	}
}

func TestTable2(t *testing.T) {
	out := Table2().String()
	if !strings.Contains(out, "537505") || !strings.Contains(out, "UniProtKB/SwissProt") {
		t.Errorf("Table II:\n%s", out)
	}
}

func TestFutureWorkScenarios(t *testing.T) {
	table, err := FutureWork()
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 4 {
		t.Fatalf("%d rows", len(table.Rows))
	}
	out := table.String()
	for _, want := range []string{"FPGA", "leaves", "joins"} {
		if !strings.Contains(out, want) {
			t.Errorf("future-work table missing %q:\n%s", want, out)
		}
	}
	// The FPGA must help, and losing a GPU without replacement must hurt
	// relative to the baseline.
	parse := func(row []string) float64 {
		var v float64
		fmt.Sscanf(strings.ReplaceAll(row[1], ",", ""), "%f", &v)
		return v
	}
	base, fpga, churn, lost := parse(table.Rows[0]), parse(table.Rows[1]), parse(table.Rows[2]), parse(table.Rows[3])
	if fpga >= base {
		t.Errorf("FPGA did not help: %v vs %v", fpga, base)
	}
	if lost <= base {
		t.Errorf("losing a GPU did not hurt: %v vs %v", lost, base)
	}
	if churn >= lost {
		t.Errorf("replacement GPU did not help: churn %v vs lost %v", churn, lost)
	}
}

func TestSVGFigures(t *testing.T) {
	dir := t.TempDir()
	paths, err := WriteSVGs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 5 {
		t.Fatalf("%d files", len(paths))
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		svg := string(data)
		if !strings.HasPrefix(svg, "<svg") || !strings.Contains(svg, "</svg>") {
			t.Errorf("%s is not an SVG document", p)
		}
		if strings.Contains(svg, "NaN") {
			t.Errorf("%s contains NaN", p)
		}
	}
}

// TestHeadlineRunDeterminism pins the claim in EXPERIMENTS.md that every
// number is exactly reproducible: two headline runs must agree event for
// event, not merely in aggregate.
func TestHeadlineRunDeterminism(t *testing.T) {
	a, err := HeadlineRun()
	if err != nil {
		t.Fatal(err)
	}
	b, err := HeadlineRun()
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.Replicas != b.Replicas || a.WastedCells != b.WastedCells {
		t.Fatalf("aggregates differ: %v/%d/%d vs %v/%d/%d",
			a.Makespan, a.Replicas, a.WastedCells, b.Makespan, b.Replicas, b.WastedCells)
	}
	if len(a.Assignments) != len(b.Assignments) {
		t.Fatalf("assignment counts differ: %d vs %d", len(a.Assignments), len(b.Assignments))
	}
	for i := range a.Assignments {
		x, y := a.Assignments[i], b.Assignments[i]
		if x.Time != y.Time || x.Slave != y.Slave || x.Replica != y.Replica || len(x.Tasks) != len(y.Tasks) {
			t.Fatalf("assignment %d differs: %+v vs %+v", i, x, y)
		}
	}
	for pi := range a.PerPE {
		if len(a.PerPE[pi].Executions) != len(b.PerPE[pi].Executions) {
			t.Fatalf("PE %d execution counts differ", pi)
		}
		for ei := range a.PerPE[pi].Executions {
			if a.PerPE[pi].Executions[ei] != b.PerPE[pi].Executions[ei] {
				t.Fatalf("PE %d execution %d differs", pi, ei)
			}
		}
	}
}
