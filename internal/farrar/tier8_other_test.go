//go:build !amd64

package farrar

// hostPaths returns a copy of k with zero Stats, keyed by its ISA name:
// off amd64 the SWAR kernel is the one native 8-bit path.
func hostPaths(k *Kernel) map[string]*Kernel {
	c := *k
	c.buf, c.stats = nil, Stats{}
	return map[string]*Kernel{ISA(): &c}
}

// hostLanes is empty: off amd64 no native lane kernel runs.
func hostLanes() map[string]laneKernel { return nil }
