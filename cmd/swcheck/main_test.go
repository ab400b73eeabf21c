package main

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"
)

// The exit-code and output contract `make lint` and CI rely on. Patterns
// resolve against the module root, whatever the working directory.

func TestRunReportsEachViolation(t *testing.T) {
	const fixture = "internal/analysis/testdata/purity/internal/sched"
	src, err := os.ReadFile("../../" + fixture + "/fixture.go")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Count(string(src), "// want ")

	var stdout, stderr bytes.Buffer
	if got := run([]string{fixture}, &stdout, &stderr); got != 1 {
		t.Fatalf("exit %d, want 1; stderr:\n%s", got, stderr.String())
	}
	lines := strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n")
	if len(lines) != want {
		t.Fatalf("%d diagnostic line(s), want %d:\n%s", len(lines), want, stdout.String())
	}
	lineRE := regexp.MustCompile(`^\S+/fixture\.go:\d+:\d+: \[purity\] \S`)
	for _, l := range lines {
		if !lineRE.MatchString(l) {
			t.Errorf("line %q is not file:line:col: [purity] message", l)
		}
	}
}

func TestRunCleanPackage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := run([]string{"internal/vtime"}, &stdout, &stderr); got != 0 {
		t.Fatalf("exit %d, want 0; stderr:\n%s", got, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout not empty on a clean package:\n%s", stdout.String())
	}
}

func TestRunUnknownFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-only", "purity"}, &stdout, &stderr); got != 2 {
		t.Errorf("exit %d, want 2", got)
	}
}

func TestRunList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-list"}, &stdout, &stderr); got != 0 {
		t.Fatalf("exit %d, want 0", got)
	}
	var names []string
	for _, l := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		names = append(names, strings.Fields(l)[0])
	}
	if got := strings.Join(names, " "); got != "exhaustive metricname purity" {
		t.Errorf("-list names %q, want exhaustive metricname purity", got)
	}
}
