// Command swcheck is the repository's static-analysis suite: a
// stdlib-only (go/parser + go/types, no x/tools) multi-analyzer driver
// that enforces the invariants DESIGN §7 documents — scheduler and SWAR
// purity, enum-switch exhaustiveness and the subsystem_name_unit metric
// naming convention. `make lint` and the CI lint job run it over the
// whole module; `make test` does not.
//
// Usage:
//
//	swcheck [-list] [package pattern ...]
//
// Patterns are directories, optionally ending in /... for a recursive
// walk (default ./... from the enclosing module root). Each finding is
// printed as
//
//	file:line:col: [analyzer] message
//
// Exit status is 0 on a clean run, 1 when any diagnostic is reported and
// 2 on a usage or load error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is swcheck with its arguments and output streams passed in; it
// returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("swcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and exit")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	if *list {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "swcheck: %v\n", err)
		return 2
	}
	root, err := analysis.FindModuleRoot(cwd)
	if err != nil {
		fmt.Fprintf(stderr, "swcheck: %v\n", err)
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	n, err := analysis.Run(root, patterns, analysis.All(), stdout)
	if err != nil {
		fmt.Fprintf(stderr, "swcheck: %v\n", err)
		return 2
	}
	if n > 0 {
		fmt.Fprintf(stderr, "swcheck: %d finding(s)\n", n)
		return 1
	}
	return 0
}
