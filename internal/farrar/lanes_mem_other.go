//go:build !linux

package farrar

// allocCols gives layout l n zeroed column bytes; off Linux they go on
// the heap (lanes_mem_linux.go maps them outside it).
func allocCols(l *laneLayout, n int) { l.cols = make([]byte, n) }
