package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"repro/internal/metrics"
)

// MetricNameAnalyzer applies metrics.CheckName to every literal metric
// name passed to a *metrics.Registry constructor (Counter, GaugeVec,
// HistogramVec, ...), so a name that would panic the registry at run time
// fails `make lint` instead — including on code paths no test registers.
// It resolves the receiver type, so a method merely named Counter on some
// other type is not misflagged.
var MetricNameAnalyzer = &Analyzer{
	Name: "metricname",
	Doc:  "metric names passed to registry constructors must follow the subsystem_name_unit convention",
	Run:  runMetricName,
}

// metricConstructors maps Registry method names to the metric kind their
// first string argument names.
var metricConstructors = map[string]metrics.Kind{
	"Counter":      metrics.KindCounter,
	"CounterVec":   metrics.KindCounter,
	"Gauge":        metrics.KindGauge,
	"GaugeVec":     metrics.KindGauge,
	"Histogram":    metrics.KindHistogram,
	"HistogramVec": metrics.KindHistogram,
}

func runMetricName(pass *Pass) {
	info := pass.Pkg.Info
	pass.Pkg.Inspect(func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		kind, ok := metricConstructors[sel.Sel.Name]
		if !ok || !isRegistry(info.Types[sel.X].Type) {
			return true
		}
		lit, ok := call.Args[0].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		name, err := strconv.Unquote(lit.Value)
		if err != nil {
			return true
		}
		if cerr := metrics.CheckName(kind, name); cerr != nil {
			pass.Reportf(lit.Pos(), "%v", cerr)
		}
		return true
	})
}

// isRegistry reports whether t is *metrics.Registry (or metrics.Registry).
func isRegistry(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Registry" && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), "internal/metrics")
}
