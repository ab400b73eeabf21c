// Command swsim drives the deterministic cluster simulator
// (internal/sim): seeded chaos scenarios — slave crashes, hangs,
// slow-downs, link faults, master restarts with checkpoint recovery — run
// under virtual time against the real master/scheduler code, with every
// distributed-systems invariant checked at the end. The same seed always
// produces the same run, byte for byte, so any reported failure is a
// one-line reproducer.
//
// Usage:
//
//	swsim [-seed N] [-scenarios N] [-duration D] [-json] [-v]
//	swsim -named shard-failover [-seed N] [-scenarios N]
//	swsim -scenario-json file.json
//
// -seed is the first seed of the sweep; -scenarios how many consecutive
// seeds to run; -duration, when positive, stops the sweep early after
// that much wall time (CI smoke mode). -named runs a curated scenario
// (e.g. "shard-failover", the cluster backend's replica-crash story)
// instead of the seeded generator. -scenario-json replays one explicit
// scenario — the shape the property tests print after shrinking. A file
// carrying a key Scenario does not have (say, a reproducer saved by an
// older build) is rejected with exit status 2 rather than replayed as a
// different scenario.
// Exit status is 1 when any scenario violates an invariant; the failing
// scenario is shrunk to a minimal reproducer and printed as JSON.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/sim"
)

func main() {
	seed := flag.Int64("seed", 1, "first seed of the sweep")
	scenarios := flag.Int("scenarios", 1, "number of consecutive seeds to run")
	duration := flag.Duration("duration", 0, "stop the sweep after this much wall time (0 = run all)")
	jsonOut := flag.Bool("json", false, "emit one JSON report per line instead of text")
	verbose := flag.Bool("v", false, "print every report, not just failures")
	scenarioJSON := flag.String("scenario-json", "", "replay one explicit scenario from a JSON file")
	named := flag.String("named", "", `run a curated scenario by name (e.g. "shard-failover") instead of the generator`)
	flag.Parse()

	if *scenarioJSON != "" {
		os.Exit(replayFile(*scenarioJSON, *jsonOut))
	}

	start := time.Now()
	bad := 0
	ran := 0
	for i := 0; i < *scenarios; i++ {
		if *duration > 0 && time.Since(start) > *duration {
			fmt.Fprintf(os.Stderr, "swsim: duration budget %v spent after %d scenarios\n", *duration, ran)
			break
		}
		s := *seed + int64(i)
		var sc sim.Scenario
		if *named != "" {
			var err error
			if sc, err = sim.Named(*named, s); err != nil {
				fmt.Fprintf(os.Stderr, "swsim: %v\n", err)
				os.Exit(2)
			}
		} else {
			sc = sim.Generate(s)
		}
		rep, err := sim.Run(sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "swsim: seed %d: %v\n", s, err)
			os.Exit(2)
		}
		ran++
		failed := !rep.Done || len(rep.Violations) > 0
		if failed {
			bad++
		}
		if *jsonOut {
			line, _ := json.Marshal(rep)
			fmt.Println(string(line))
		} else if failed || *verbose {
			printReport(rep)
		}
		if failed {
			min := sim.Shrink(sc, failing, 400)
			repro, _ := json.MarshalIndent(min, "", "  ")
			fmt.Fprintf(os.Stderr, "swsim: seed %d shrunken reproducer (replay with -scenario-json):\n%s\n", s, repro)
		}
	}
	if !*jsonOut {
		fmt.Printf("swsim: %d scenarios, %d with violations\n", ran, bad)
	}
	if bad > 0 {
		os.Exit(1)
	}
}

// loadScenario reads one scenario from disk. Unknown keys are an error:
// silently dropping one would replay a different scenario than the file
// describes and report it "ok".
func loadScenario(path string) (sim.Scenario, error) {
	var sc sim.Scenario
	f, err := os.Open(path)
	if err != nil {
		return sc, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return sc, fmt.Errorf("parsing %s: %w", path, err)
	}
	return sc, nil
}

// replayFile runs one explicit scenario from disk and reports it.
func replayFile(path string, jsonOut bool) int {
	sc, err := loadScenario(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "swsim: %v\n", err)
		return 2
	}
	rep, err := sim.Run(sc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "swsim: %v\n", err)
		return 2
	}
	if jsonOut {
		line, _ := json.Marshal(rep)
		fmt.Println(string(line))
	} else {
		printReport(rep)
	}
	if !rep.Done || len(rep.Violations) > 0 {
		return 1
	}
	return 0
}

func failing(sc sim.Scenario) bool {
	rep, err := sim.Run(sc)
	if err != nil {
		return false
	}
	return !rep.Done || len(rep.Violations) > 0
}

func printReport(rep *sim.Report) {
	status := "ok"
	if !rep.Done || len(rep.Violations) > 0 {
		status = "FAIL"
	}
	fmt.Printf("seed %-6d %-4s makespan=%-12v events=%-6d restarts=%d expired=%d replicas=%d faults=%d fp=%.12s\n",
		rep.Seed, status, rep.Makespan, rep.EventsFired, rep.Restarts, rep.Expired, rep.Replicas, rep.Faults, rep.Fingerprint)
	for _, v := range rep.Violations {
		fmt.Printf("  violation: %s\n", v)
	}
}
