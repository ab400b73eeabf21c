package farrar

import (
	"fmt"
	"slices"

	"repro/internal/seq"
)

// HostPaths exposes hostPaths to the external tests.
func HostPaths(k *Kernel) map[string]*Kernel { return hostPaths(k) }

// HostLaneWidths returns the widths of the native lane kernels this host
// runs, narrowest first.
func HostLaneWidths() []int {
	var widths []int
	for _, kern := range hostLanes() {
		widths = append(widths, kern.width)
	}
	slices.Sort(widths)
	return widths
}

// NewBatchWidth is NewBatch laid out for the host's native lane kernel of
// width w, which the host must run (HostLaneWidths).
func NewBatchWidth(targets [][]byte, a *seq.Alphabet, w int) *Batch {
	for _, kern := range hostLanes() {
		if kern.width == w {
			return laneBatch(targets, a, kern)
		}
	}
	panic(fmt.Sprintf("the host runs no %d-lane kernel", w))
}

// LaneOccupancy is the share of a batch's lane slots that hold a residue
// (residues in lanes ÷ columns × width), 0 without a lane layout.
func LaneOccupancy(b *Batch) float64 {
	if b.lanes == nil {
		return 0
	}
	return float64(b.lanes.residues) / float64(len(b.lanes.cols))
}
