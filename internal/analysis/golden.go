package analysis

import (
	"fmt"
	"go/ast"
	"regexp"
	"strconv"
)

// This file is the hand-rolled analysistest: a golden testdata package
// annotates the lines where an analyzer must fire with
//
//	offending code // want "regexp"
//
// comments (several "..." patterns on one line expect several
// diagnostics). CheckGolden loads such a package, runs the analyzers, and
// returns one mismatch string per unexpected or missing diagnostic —
// empty means the fixture and analyzer agree exactly. Tests fail on any
// returned mismatch, so goldens assert both directions: every violation
// is caught, and clean code stays clean.

var wantPatternRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// CheckGolden runs the analyzers over the package in dir (resolved
// against the enclosing module) and compares the diagnostics with the
// package's // want comments.
func CheckGolden(dir string, analyzers []*Analyzer) ([]string, error) {
	root, err := FindModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	loader, err := NewLoader(root)
	if err != nil {
		return nil, err
	}
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		return nil, err
	}
	diags := Check(pkg, analyzers)

	type key struct {
		file string
		line int
	}
	wants := map[key][]*regexp.Regexp{}
	for _, f := range pkg.Files {
		if err := collectWants(pkg, f, func(file string, line int, re *regexp.Regexp) {
			k := key{file, line}
			wants[k] = append(wants[k], re)
		}); err != nil {
			return nil, err
		}
	}

	var mismatches []string
	for _, d := range diags {
		k := key{d.Pos.Filename, d.Pos.Line}
		matched := -1
		for i, re := range wants[k] {
			if re.MatchString(d.Message) {
				matched = i
				break
			}
		}
		if matched < 0 {
			mismatches = append(mismatches, fmt.Sprintf("unexpected diagnostic: %s", d))
			continue
		}
		wants[k] = append(wants[k][:matched], wants[k][matched+1:]...)
	}
	for k, res := range wants {
		for _, re := range res {
			mismatches = append(mismatches, fmt.Sprintf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, re))
		}
	}
	return mismatches, nil
}

// collectWants parses every // want comment of one file.
func collectWants(pkg *Package, f *ast.File, add func(file string, line int, re *regexp.Regexp)) error {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			pos := pkg.Fset.Position(c.Pos())
			text := c.Text
			if len(text) < 2 || text[:2] != "//" {
				continue
			}
			body := text[2:]
			idx := indexWant(body)
			if idx < 0 {
				continue
			}
			for _, m := range wantPatternRE.FindAllStringSubmatch(body[idx:], -1) {
				pat, err := strconv.Unquote(`"` + m[1] + `"`)
				if err != nil {
					return fmt.Errorf("%s: bad want pattern %s: %v", pos, m[0], err)
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					return fmt.Errorf("%s: bad want regexp %q: %v", pos, pat, err)
				}
				add(pos.Filename, pos.Line, re)
			}
		}
	}
	return nil
}

// indexWant finds the start of a "want" directive in a comment body,
// requiring it to be the first word.
func indexWant(body string) int {
	i := 0
	for i < len(body) && (body[i] == ' ' || body[i] == '\t') {
		i++
	}
	if len(body)-i >= 4 && body[i:i+4] == "want" {
		return i + 4
	}
	return -1
}
