package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, parsed and type-checked package of the module.
type Package struct {
	// Path is the import path the loader assigned: the module path plus the
	// directory's path relative to the module root. Testdata packages get a
	// synthetic path the same way, which is what lets path-scoped analyzers
	// (purity) fire on fixtures laid out like the real tree.
	Path string
	// ModulePath is the module path from go.mod (shared by all packages of
	// one Loader); analyzers use it to tell module enums from imported ones.
	ModulePath string

	Fset  *token.FileSet
	Files []*ast.File // non-test files, sorted by file name
	Types *types.Package
	Info  *types.Info
}

// Loader loads packages of one module by directory, type-checking them
// with go/types. Module-internal imports are resolved recursively by the
// loader itself; the standard library comes from the gc importer's export
// data. Loaded packages are cached, so shared dependencies (e.g.
// internal/metrics) are checked once.
type Loader struct {
	ModuleRoot string
	ModulePath string

	fset  *token.FileSet
	std   types.Importer
	byDir map[string]*Package
	// loading guards against import cycles, which go/types would otherwise
	// chase forever through our Import.
	loading map[string]bool
}

// NewLoader builds a loader for the module rooted at root (the directory
// holding go.mod).
func NewLoader(root string) (*Loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	mod, err := os.ReadFile(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("analysis: module root %s: %w", abs, err)
	}
	path := modulePath(string(mod))
	if path == "" {
		return nil, fmt.Errorf("analysis: no module line in %s/go.mod", abs)
	}
	fset := token.NewFileSet()
	return &Loader{
		ModuleRoot: abs,
		ModulePath: path,
		fset:       fset,
		std:        importer.ForCompiler(fset, "gc", nil),
		byDir:      map[string]*Package{},
		loading:    map[string]bool{},
	}, nil
}

// modulePath extracts the module path from go.mod contents.
func modulePath(mod string) string {
	for _, line := range strings.Split(mod, "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(abs, "go.mod")); err == nil {
			return abs, nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", fmt.Errorf("analysis: no go.mod above %s", dir)
		}
		abs = parent
	}
}

// Import implements types.Importer: module-internal paths are loaded from
// source, everything else is delegated to the gc importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
		pkg, err := l.LoadDir(filepath.Join(l.ModuleRoot, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// LoadDir loads, parses and type-checks the package in dir (non-test .go
// files only). Results are cached per directory.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	if pkg, ok := l.byDir[abs]; ok {
		return pkg, nil
	}
	path, err := l.importPathFor(abs)
	if err != nil {
		return nil, err
	}
	if l.loading[abs] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[abs] = true
	defer delete(l.loading, abs)

	names, err := goSourceFiles(abs)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no Go source files in %s", abs)
	}

	pkg := &Package{
		Path:       path,
		ModulePath: l.ModulePath,
		Fset:       l.fset,
		Info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Uses:  map[*ast.Ident]types.Object{},
		},
	}
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(abs, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		pkg.Files = append(pkg.Files, f)
	}

	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, pkg.Files, pkg.Info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	pkg.Types = tpkg
	l.byDir[abs] = pkg
	return pkg, nil
}

// importPathFor maps an absolute directory inside the module to its
// import path.
func (l *Loader) importPathFor(abs string) (string, error) {
	rel, err := filepath.Rel(l.ModuleRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("analysis: %s is outside module %s", abs, l.ModuleRoot)
	}
	if rel == "." {
		return l.ModulePath, nil
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel), nil
}

// goSourceFiles lists the non-test .go files of dir, sorted.
func goSourceFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		// Honour GOOS/GOARCH file suffixes and //go:build lines, as the
		// compiler does: per-architecture files declare the same names.
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}
