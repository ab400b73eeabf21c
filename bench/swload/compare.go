package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// manifest is the part of BENCHMARK.json this command reads.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// verdict classifies a change of one metric against its bound, the share
// of the old value by which it may worsen.
func verdict(m metricDef, before, after float64) (delta float64, mark string) {
	delta = ratio(after-before, before)
	worsening := delta
	if m.Better == "higher" {
		worsening = -delta
	}
	switch {
	case worsening > m.Bound:
		return delta, "worse"
	case worsening < -m.Bound:
		return delta, "better"
	}
	return delta, "within"
}

// compareFiles prints, per workload and end-to-end metric, both values,
// the change and the bound from BENCHMARK.json, and returns non-zero when
// any metric is worse by more than its bound.
func compareFiles(oldPath, newPath string) int {
	man, err := readManifest("BENCHMARK.json")
	if err != nil {
		return fail(err)
	}
	before, err := readResultFile(oldPath)
	if err != nil {
		return fail(err)
	}
	after, err := readResultFile(newPath)
	if err != nil {
		return fail(err)
	}
	if before.Seed != after.Seed || before.Seconds != after.Seconds {
		fmt.Printf("note: the runs differ in set-up (seed %d, %g s against seed %d, %g s)\n",
			before.Seed, before.Seconds, after.Seed, after.Seconds)
	}
	byName := map[string]result{}
	for _, r := range after.Workloads {
		byName[r.Workload] = r
	}
	worse := 0
	fmt.Printf("%-18s %-18s %12s %12s %9s %7s  %s\n", "workload", "metric", "old", "new", "change", "bound", "")
	for _, o := range before.Workloads {
		n, ok := byName[o.Workload]
		if !ok {
			fmt.Printf("%-18s missing from %s\n", o.Workload, newPath)
			worse++
			continue
		}
		for _, m := range man.EndToEnd {
			delta, mark := verdict(m, o.EndToEnd[m.Name], n.EndToEnd[m.Name])
			if mark == "worse" {
				worse++
			}
			fmt.Printf("%-18s %-18s %12.4f %12.4f %+8.1f%% %6.0f%%  %s\n", o.Workload, m.Name,
				o.EndToEnd[m.Name], n.EndToEnd[m.Name], 100*delta, 100*m.Bound, mark)
		}
		if n.Failed > o.Failed {
			fmt.Printf("%-18s %-18s %12d %12d %25s\n", o.Workload, "failed", o.Failed, n.Failed, "worse")
			worse++
		}
	}
	if worse > 0 {
		fmt.Printf("%d worse\n", worse)
		return 1
	}
	return 0
}
