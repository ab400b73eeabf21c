package farrar

import (
	"runtime"
	"syscall"
)

// allocCols gives layout l n zeroed column bytes outside the Go heap. A
// layout lives as long as its engine, at about one byte per database
// residue in lanes. On the heap it would count towards the collector's
// goal, which by default lets the heap grow to twice the live bytes: on
// scan_batch that put peak RSS at +14 % where the anonymous mapping,
// which costs only its own pages, reads +10 %. The mapping is released
// when l is collected; if mapping fails, the columns go on the heap.
func allocCols(l *laneLayout, n int) {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		l.cols = make([]byte, n)
		return
	}
	l.cols = b
	// A failed unmap leaves the pages mapped; the finalizer has no one to tell.
	runtime.SetFinalizer(l, func(l *laneLayout) { _ = syscall.Munmap(l.cols) })
}
