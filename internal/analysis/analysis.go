// Package analysis is the stdlib-only static-analysis core behind
// cmd/swcheck. It loads and type-checks the module's packages (load.go),
// runs a set of repo-specific analyzers over them (run.go), and reports
// file:line diagnostics. The three analyzers turn DESIGN §7's prose
// invariants — scheduler and SWAR purity, enum-switch exhaustiveness and
// metric naming — into checks that fail `make lint` when violated; each
// guards a contract that neither `go vet`, `-race` nor a test checks.
//
// The package deliberately avoids golang.org/x/tools: packages are
// parsed with go/parser, type-checked with go/types, and module-internal
// imports are resolved by the Loader itself, with the gc importer
// supplying the standard library. The result is a miniature analysis
// framework in the same spirit as x/tools/go/analysis, small enough to
// live in-tree.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Analyzer is one named check run over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics.
	Name string
	// Doc is a one-line description shown by `swcheck -list`.
	Doc string
	// Run inspects pass.Pkg and reports findings via pass.Reportf.
	Run func(pass *Pass)
}

// All returns every analyzer in the suite, in reporting-name order. This
// is the set `swcheck ./...` (and therefore `make lint`) runs.
func All() []*Analyzer {
	return []*Analyzer{
		ExhaustiveAnalyzer,
		MetricNameAnalyzer,
		PurityAnalyzer,
	}
}

// Diagnostic is one finding at one position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one analyzer's run over one package and collects its
// diagnostics.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Inspect runs ast.Inspect with fn over every file of the package.
func (p *Package) Inspect(fn func(n ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}

// pathHasPackage reports whether import path p names the package pkg
// ("internal/sched" style) on a segment boundary: p is pkg, ends in
// /pkg, or contains /pkg/ — so "x/internal/schedx" does not match
// "internal/sched".
func pathHasPackage(p, pkg string) bool {
	return p == pkg ||
		strings.HasSuffix(p, "/"+pkg) ||
		strings.HasPrefix(p, pkg+"/") ||
		strings.Contains(p, "/"+pkg+"/")
}
