package prefilter

import "repro/internal/metrics"

// Metrics is the prefilter instrumentation bundle. Like the farrar bundle,
// the engine itself stays metrics-free (automata are built per query, per
// task); callers observe a pass's Stats after it completes. NewMetrics(nil)
// is the uninstrumented bundle engines and protocol cores start with.
type Metrics struct {
	// PatternsCompiled counts k-mer seed patterns compiled into automata.
	PatternsCompiled *metrics.Counter
	// ResiduesScanned counts database residues streamed through automata.
	ResiduesScanned *metrics.Counter
	// WindowsEmitted counts merged candidate windows handed to rescore.
	WindowsEmitted *metrics.Counter
	// Selectivity is the distribution of per-pass candidate fractions
	// (candidate residues / database residues, 0..1).
	Selectivity *metrics.Histogram
	// RescoreCellsSaved counts DP cells a filtered search skipped versus
	// the full scan of the same query (full-scan cells minus rescored).
	RescoreCellsSaved *metrics.Counter
}

// SelectivityBuckets spans the useful range: very selective passes land in
// the fine low buckets, degenerate everything-admitted passes in the top.
var SelectivityBuckets = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1}

// NewMetrics registers (or re-attaches to) the prefilter families on r.
func NewMetrics(r *metrics.Registry) *Metrics {
	return &Metrics{
		PatternsCompiled:  r.Counter("prefilter_patterns_compiled_total", "K-mer seed patterns compiled into Aho-Corasick automata."),
		ResiduesScanned:   r.Counter("prefilter_residues_scanned_total", "Database residues streamed through prefilter automata."),
		WindowsEmitted:    r.Counter("prefilter_windows_emitted_total", "Merged candidate windows emitted to the rescore stage."),
		Selectivity:       r.Histogram("prefilter_selectivity_ratio", "Fraction of database residues admitted for rescoring, per prefilter pass.", SelectivityBuckets),
		RescoreCellsSaved: r.Counter("prefilter_rescore_cells_saved_total", "DP cells skipped by filtered searches relative to full scans."),
	}
}

// Observe publishes one completed prefilter pass.
func (m *Metrics) Observe(s Stats) {
	m.PatternsCompiled.Add(float64(s.Patterns))
	m.ResiduesScanned.Add(float64(s.ResiduesScanned))
	m.WindowsEmitted.Add(float64(s.Windows))
	m.Selectivity.Observe(s.Selectivity())
}

// ObserveSaved publishes the cells a filtered search skipped versus its
// full-scan equivalent. Negative deltas (margins re-covered more residues
// than the database holds) are clamped to zero.
func (m *Metrics) ObserveSaved(fullCells, rescoredCells int64) {
	if saved := fullCells - rescoredCells; saved > 0 {
		m.RescoreCellsSaved.Add(float64(saved))
	}
}
