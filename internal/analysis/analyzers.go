package analysis

import "fmt"

// All returns every analyzer in the suite, in reporting-name order. This
// is the set `swcheck ./...` (and therefore `make lint` and `make test`)
// runs.
func All() []*Analyzer {
	return []*Analyzer{
		CtxflowAnalyzer,
		DeadlineAnalyzer,
		ErrcheckAnalyzer,
		ExhaustiveAnalyzer,
		LeakcheckAnalyzer,
		LockguardAnalyzer,
		MetricNameAnalyzer,
		PurityAnalyzer,
		UnlockpathAnalyzer,
	}
}

// Select resolves comma-separated analyzer names against All.
func Select(names []string) ([]*Analyzer, error) {
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range names {
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("analysis: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}
