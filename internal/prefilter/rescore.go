package prefilter

import (
	"repro/internal/farrar"
	"repro/internal/score"
	"repro/internal/seq"
)

// Rescorer runs the second stage of the filtered search: the dispatched
// Farrar Smith-Waterman kernel restricted to candidate windows. Scores are
// per database sequence — the maximum over that sequence's windows, or 0
// (the local-alignment floor) for sequences the prefilter excluded — so a
// rescored score slice has the same shape as a full scan's and ranks
// identically whenever every hit's alignment lies inside an admitted
// window.
type Rescorer struct {
	kernel *farrar.Kernel
	qlen   int
}

// NewRescorer builds a rescorer for one query under the given scheme.
func NewRescorer(query []byte, s score.Scheme) (*Rescorer, error) {
	k, err := farrar.NewKernel(query, s)
	if err != nil {
		return nil, err
	}
	return &Rescorer{kernel: k, qlen: len(query)}, nil
}

// Rescore aligns the candidate windows and returns one score per database
// sequence plus the DP cells actually computed. Windows are validated
// against the database first.
func (r *Rescorer) Rescore(db []*seq.Sequence, windows []Window) (scores []int, cells int64, err error) {
	if err := ValidateWindows(windows, db); err != nil {
		return nil, 0, err
	}
	scores = make([]int, len(db))
	for _, w := range windows {
		segment := db[w.Seq].Residues[w.Start:w.End]
		sc := r.kernel.Score(segment)
		cells += int64(r.qlen) * int64(len(segment))
		if sc > scores[w.Seq] {
			scores[w.Seq] = sc
		}
	}
	return scores, cells, nil
}

// Stats exposes the kernel's fallback-ladder telemetry accumulated across
// Rescore calls, for the farrar metrics bundle.
func (r *Rescorer) Stats() farrar.Stats { return r.kernel.Stats() }
