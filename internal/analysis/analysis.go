// Package analysis is the stdlib-only static-analysis core behind
// cmd/swcheck. It loads and type-checks the module's packages (load.go),
// runs a set of repo-specific analyzers over them (run.go), and reports
// file:line diagnostics. The analyzers turn DESIGN's prose invariants —
// scheduler purity, enum-switch exhaustiveness, lock discipline, checked
// errors, metric naming — into checks that fail `make test` when violated.
//
// The package deliberately avoids golang.org/x/tools: packages are
// parsed with go/parser, type-checked with go/types, and module-internal
// imports are resolved by the Loader itself, with the gc importer
// supplying the standard library. The result is a miniature analysis
// framework in the same spirit as x/tools/go/analysis, small enough to
// live in-tree.
//
// A finding can be suppressed at a specific line with a directive
// comment carrying a mandatory reason:
//
//	//swcheck:ignore <analyzer> <reason...>
//
// The directive applies to its own source line and the one below it, so
// it works both trailing the offending statement and on the line above
// it. A directive without a reason is itself a diagnostic.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Analyzer is one named check run over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore directives.
	Name string
	// Doc is a one-line description shown by `swcheck -list`.
	Doc string
	// Run inspects pass.Pkg and reports findings via pass.Reportf.
	Run func(pass *Pass)
}

// Diagnostic is one finding at one position. Findings covered by an
// ignore directive are still recorded, flagged Ignored and carrying the
// directive's reason — that is what lets `swcheck -json` export the full
// picture and `swcheck -ignores` prove each directive still earns its
// keep. Text output and exit codes count only non-ignored findings.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string

	Ignored      bool
	IgnoreReason string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one analyzer's run over one package and collects its
// diagnostics, honouring //swcheck:ignore directives.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	diags *[]Diagnostic
}

// Reportf records a finding at pos. If an ignore directive covers it the
// finding is kept but flagged Ignored, and the directive is marked live.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	d := Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	}
	if i := p.Pkg.coveringIgnore(p.Analyzer.Name, position); i >= 0 {
		p.Pkg.usedIgnores[i] = true
		d.Ignored = true
		d.IgnoreReason = p.Pkg.ignores[i].reason
	}
	*p.diags = append(*p.diags, d)
}

// ignoreDirective is one parsed //swcheck:ignore comment. It suppresses
// matching diagnostics on its own line and the line below.
type ignoreDirective struct {
	analyzer string // analyzer name or "all"
	line     int    // line the directive is written on
	reason   string
}

const ignorePrefix = "//swcheck:ignore"

// parseIgnores extracts every ignore directive of a file. Malformed
// directives (missing analyzer or reason) are returned separately so the
// driver can report them — a silent bad directive would suppress nothing
// while looking like it does.
func parseIgnores(fset *token.FileSet, f *ast.File) (dirs []ignoreDirective, malformed []Diagnostic) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, ignorePrefix) {
				continue
			}
			pos := fset.Position(c.Pos())
			rest := strings.TrimPrefix(c.Text, ignorePrefix)
			fields := strings.Fields(rest)
			if len(fields) < 2 {
				malformed = append(malformed, Diagnostic{
					Pos:      pos,
					Analyzer: "swcheck",
					Message:  "malformed ignore directive: want //swcheck:ignore <analyzer> <reason>",
				})
				continue
			}
			dirs = append(dirs, ignoreDirective{
				analyzer: fields[0],
				line:     pos.Line,
				reason:   strings.Join(fields[1:], " "),
			})
		}
	}
	return dirs, malformed
}

// WalkStack traverses every file of the package, calling fn with each node
// and its ancestor stack (outermost first, excluding n itself). Returning
// false skips the node's children.
func (p *Package) WalkStack(fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			if !fn(n, stack) {
				return false
			}
			stack = append(stack, n)
			return true
		})
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
