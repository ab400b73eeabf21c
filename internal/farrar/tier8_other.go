//go:build !amd64

package farrar

// Off amd64 the probe chooses no native kernel: the lane and striped
// kernels are amd64 assembly, so every target takes the striped path and
// scoreNative8 runs the SWAR kernel (swar8.go).
var (
	nativeLanes   laneKernel
	nativeStriped stripedKernel
)
