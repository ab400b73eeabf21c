package analysis

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strconv"
	"strings"
)

// PurityAnalyzer enforces DESIGN §1's central contract: internal/sched,
// internal/platform, internal/vtime and internal/sim are pure state
// machines — every method takes the current time as an argument and
// performs no I/O, no sleeping and no goroutine spawning. That purity is
// what lets the same code drive both the wall-clock master and the
// calibrated discrete-event experiments, and what makes the cluster
// simulator's chaos runs replay byte-identically from a seed, so it must
// hold mechanically, not by convention.
//
// Inside the pure packages the analyzer forbids:
//   - go statements (concurrency belongs to the drivers, not the model);
//   - wall-clock and sleeping calls from package time (Now, Sleep, Since,
//     Until, After, Tick, NewTimer, NewTicker, AfterFunc);
//   - importing I/O-capable packages (os, os/exec, os/signal, net and its
//     subtree, syscall, io/ioutil);
//   - math/rand functions that draw from the process-global source (Intn,
//     Float64, Shuffle, ...). Explicitly seeded generators via rand.New /
//     rand.NewSource stay allowed: a seeded *rand.Rand is deterministic,
//     which is the property the checker actually guards.
//
// The analyzer also guards a second, unrelated purity contract: the
// native kernels' hot path. internal/simd/swar must stay loop-free bit
// tricks (no for or range statements) and must never import the emulated
// internal/simd ISA; the swar*, sse*, avx*, cpuid* and lanes* kernel files
// of internal/farrar likewise must not import internal/simd — the whole point
// of the native tiers is that the emulated ISA is their oracle, not their
// substrate, so a stray import there would silently reintroduce the
// per-lane-loop tax the tiers exist to remove.
var PurityAnalyzer = &Analyzer{
	Name: "purity",
	Doc:  "forbid goroutines, wall-clock time, I/O imports and global randomness in the pure scheduler/simulator packages; keep the SWAR, SSE2, AVX2 and lane hot paths off the emulated ISA",
	Run:  runPurity,
}

// purePackages are the packages (matched on import-path segments) the
// purity analyzer applies to.
var purePackages = []string{"internal/sched", "internal/platform", "internal/vtime", "internal/sim"}

// forbiddenTimeFuncs are package time functions that read the wall clock
// or sleep.
var forbiddenTimeFuncs = map[string]bool{
	"Now": true, "Sleep": true, "Since": true, "Until": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

// allowedRandFuncs are the math/rand constructors for explicitly seeded
// generators; every other package-level rand function uses the global
// source and is forbidden in pure packages.
var allowedRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
}

// forbiddenImports are I/O-capable packages pure code must not import.
// net matches its whole subtree via pathHasPackage.
var forbiddenImports = []string{"os", "os/exec", "os/signal", "net", "syscall", "io/ioutil"}

// swarPackage is the loop-free primitives package and emulatedISA the
// oracle package SWAR code must not import. Both are matched as exact
// path suffixes (pathIsPackage), because segment matching would conflate
// internal/simd with its swar subpackage.
const (
	swarPackage   = "internal/simd/swar"
	emulatedISA   = "internal/simd"
	farrarPackage = "internal/farrar"
)

// pathIsPackage reports whether import path p IS the package pkg (exact
// match or exact suffix), unlike pathHasPackage which also matches pkg as
// a prefix segment and would conflate internal/simd with internal/simd/swar.
func pathIsPackage(p, pkg string) bool {
	return p == pkg || strings.HasSuffix(p, "/"+pkg)
}

// runSwarPurity enforces the native hot-path contract; see the analyzer doc.
func runSwarPurity(pass *Pass) {
	switch {
	case pathIsPackage(pass.Pkg.Path, swarPackage):
		for _, f := range pass.Pkg.Files {
			for _, imp := range f.Imports {
				if path, err := strconv.Unquote(imp.Path.Value); err == nil && pathIsPackage(path, emulatedISA) {
					pass.Reportf(imp.Pos(), "SWAR package %s imports the emulated ISA %s: the oracle must never be the substrate", pass.Pkg.Types.Name(), path)
				}
			}
		}
		pass.Pkg.Inspect(func(n ast.Node) bool {
			switch n.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				pass.Reportf(n.Pos(), "loop statement in SWAR package %s: primitives must be loop-free bit tricks over packed words", pass.Pkg.Types.Name())
			}
			return true
		})
	case pathIsPackage(pass.Pkg.Path, farrarPackage):
		for _, f := range pass.Pkg.Files {
			name := filepath.Base(pass.Pkg.Fset.Position(f.Pos()).Filename)
			if !strings.HasPrefix(name, "swar") && !strings.HasPrefix(name, "sse") &&
				!strings.HasPrefix(name, "avx") && !strings.HasPrefix(name, "cpuid") &&
				!strings.HasPrefix(name, "lanes") {
				continue
			}
			for _, imp := range f.Imports {
				if path, err := strconv.Unquote(imp.Path.Value); err == nil && pathIsPackage(path, emulatedISA) {
					pass.Reportf(imp.Pos(), "native kernel file %s imports the emulated ISA %s: the oracle must never be the substrate", name, path)
				}
			}
		}
	}
}

func runPurity(pass *Pass) {
	runSwarPurity(pass)
	pure := false
	for _, p := range purePackages {
		if pathHasPackage(pass.Pkg.Path, p) {
			pure = true
			break
		}
	}
	if !pure {
		return
	}

	for _, f := range pass.Pkg.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			for _, bad := range forbiddenImports {
				if path == bad || (bad == "net" && strings.HasPrefix(path, "net/")) {
					pass.Reportf(imp.Pos(), "pure package %s imports %s (no I/O in the scheduler/simulator core)", pass.Pkg.Types.Name(), path)
				}
			}
		}
	}

	pass.Pkg.Inspect(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "go statement in pure package %s: concurrency belongs to the drivers, not the state machine", pass.Pkg.Types.Name())
		case *ast.SelectorExpr:
			pkgName, ok := pkgNameOf(pass.Pkg.Info, n.X)
			if !ok {
				return true
			}
			// Only function uses matter: type references like *rand.Rand or
			// time.Duration are pure values.
			if _, isFunc := pass.Pkg.Info.Uses[n.Sel].(*types.Func); !isFunc {
				return true
			}
			switch pkgName.Imported().Path() {
			case "time":
				if forbiddenTimeFuncs[n.Sel.Name] {
					pass.Reportf(n.Pos(), "time.%s in pure package %s: take the current time as an argument instead", n.Sel.Name, pass.Pkg.Types.Name())
				}
			case "math/rand", "math/rand/v2":
				if !allowedRandFuncs[n.Sel.Name] {
					pass.Reportf(n.Pos(), "rand.%s draws from the global source; use an explicitly seeded *rand.Rand for determinism", n.Sel.Name)
				}
			}
		}
		return true
	})
}

// pkgNameOf resolves an expression to the package it names, if it is a
// plain package qualifier like `time` in `time.Now`.
func pkgNameOf(info *types.Info, e ast.Expr) (*types.PkgName, bool) {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil, false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	return pn, ok
}
