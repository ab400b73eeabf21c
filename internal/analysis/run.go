package analysis

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Run expands the given package patterns (a directory, or a directory
// followed by /... for a recursive walk) relative to the module rooted at
// root, loads every matched package, runs the analyzers over each, and
// writes one line per diagnostic to w, sorted by position. It returns the
// number of diagnostics printed. Directories named testdata, vendor or
// starting with "." are skipped by pattern expansion — fixtures are loaded
// explicitly by the golden tests, never by a production run.
func Run(root string, patterns []string, analyzers []*Analyzer, w io.Writer) (int, error) {
	loader, err := NewLoader(root)
	if err != nil {
		return 0, err
	}
	dirs, err := expandPatterns(root, patterns)
	if err != nil {
		return 0, err
	}
	var diags []Diagnostic
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			return 0, err
		}
		diags = append(diags, Check(pkg, analyzers)...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	for _, d := range diags {
		fmt.Fprintln(w, d)
	}
	return len(diags), nil
}

// Check runs the analyzers over one loaded package and returns their
// diagnostics.
func Check(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Pkg: pkg, diags: &diags}
		a.Run(pass)
	}
	return diags
}

// expandPatterns resolves CLI package patterns to package directories.
func expandPatterns(root string, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) error {
		abs, err := filepath.Abs(dir)
		if err != nil {
			return err
		}
		if !seen[abs] {
			seen[abs] = true
			dirs = append(dirs, abs)
		}
		return nil
	}
	for _, pat := range patterns {
		base, recursive := strings.CutSuffix(pat, "/...")
		if base == "" || base == "." {
			base = root
		} else if !filepath.IsAbs(base) {
			base = filepath.Join(root, base)
		}
		if !recursive {
			if err := add(base); err != nil {
				return nil, err
			}
			continue
		}
		err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (strings.HasPrefix(name, ".") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			names, err := goSourceFiles(path)
			if err != nil {
				return err
			}
			if len(names) > 0 {
				return add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}
