//go:build !amd64

package farrar

// hostLanes is empty: off amd64 no native lane kernel runs.
func hostLanes() map[string]laneKernel { return nil }
