//go:build !amd64

package farrar

// Off amd64 the probe chooses no native kernel: the lane and striped
// kernels are amd64 assembly, so every target takes the striped path and
// both rungs of the ladder run the SWAR kernels (swar8.go, swar16.go).
var (
	nativeLanes   laneKernel
	nativeStriped stripedKernels
)
