// Command swcheck is the repository's static-analysis suite: a
// stdlib-only (go/parser + go/types, no x/tools) multi-analyzer driver
// that enforces the invariants DESIGN §7 documents — scheduler purity,
// enum-switch exhaustiveness, mutex discipline, checked errors and the
// subsystem_name_unit metric naming convention. `make lint` (and therefore `make test` and CI) runs it over
// the whole module.
//
// Usage:
//
//	swcheck [-only a,b] [-list] [-json] [-ignores] [package pattern ...]
//
// Patterns are directories, optionally ending in /... for a recursive
// walk (default ./... from the enclosing module root). Exit status is 1
// when any diagnostic is reported; each is printed as
//
//	file:line:col: [analyzer] message
//
// -json emits the findings as a JSON array instead — including the
// suppressed ones, flagged "ignored" with the directive's reason — for
// CI artifacts and tooling; the exit status still counts only live
// findings. -ignores audits every //swcheck:ignore directive and fails
// when one is stale (no longer suppresses anything).
//
// A finding can be suppressed with a trailing or preceding comment
// `//swcheck:ignore <analyzer> <reason>`; the reason is mandatory.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
)

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list the available analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings (including ignored ones) as a JSON array")
	ignores := flag.Bool("ignores", false, "audit //swcheck:ignore directives; stale ones fail")
	flag.Parse()

	analyzers := analysis.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *only != "" {
		var err error
		analyzers, err = analysis.Select(strings.Split(*only, ","))
		if err != nil {
			fmt.Fprintf(os.Stderr, "swcheck: %v\n", err)
			os.Exit(2)
		}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "swcheck: %v\n", err)
		os.Exit(2)
	}
	root, err := analysis.FindModuleRoot(cwd)
	if err != nil {
		fmt.Fprintf(os.Stderr, "swcheck: %v\n", err)
		os.Exit(2)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	if *jsonOut || *ignores {
		diags, uses, err := analysis.Findings(root, patterns, analyzers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "swcheck: %v\n", err)
			os.Exit(2)
		}
		if *ignores {
			stale := 0
			for _, u := range uses {
				status := "live"
				if !u.Live {
					status = "STALE"
					stale++
				}
				fmt.Printf("%s:%d: [%s] %s — %s\n", u.File, u.Line, u.Analyzer, status, u.Reason)
			}
			if stale > 0 {
				fmt.Fprintf(os.Stderr, "swcheck: %d stale ignore directive(s): delete them or restore the finding they suppressed\n", stale)
				os.Exit(1)
			}
			return
		}
		if err := analysis.WriteJSON(os.Stdout, diags); err != nil {
			fmt.Fprintf(os.Stderr, "swcheck: %v\n", err)
			os.Exit(2)
		}
		live := 0
		for _, d := range diags {
			if !d.Ignored {
				live++
			}
		}
		if live > 0 {
			fmt.Fprintf(os.Stderr, "swcheck: %d finding(s)\n", live)
			os.Exit(1)
		}
		return
	}

	n, err := analysis.Run(root, patterns, analyzers, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "swcheck: %v\n", err)
		os.Exit(2)
	}
	if n > 0 {
		fmt.Fprintf(os.Stderr, "swcheck: %d finding(s)\n", n)
		os.Exit(1)
	}
}
