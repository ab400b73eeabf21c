package farrar

// HostPaths exposes hostPaths to the external tests.
func HostPaths(k *Kernel) map[string]*Kernel { return hostPaths(k) }

// LaneOccupancy is the share of a batch's lane slots that hold a residue
// (residues in lanes ÷ columns × 32), 0 without a lane layout.
func LaneOccupancy(b *Batch) float64 {
	if b.lanes == nil {
		return 0
	}
	return float64(b.lanes.residues) / float64(len(b.lanes.cols))
}
