//go:build !amd64

package farrar

// Off amd64 the SWAR kernel (swar8.go) is the native 8-bit tier.

// native8 is empty: the SWAR tier keeps its profile in the Kernel.
type native8 struct{}

// scoreNative8 is the 8-bit tier Kernel.Score tries first.
func (k *Kernel) scoreNative8(target []byte) (int, bool) { return k.ScoreSWAR8(target) }

// ISA names the native 8-bit kernel this host runs: "swar" off amd64.
func ISA() string { return "swar" }

// nativeLanes is nil: the lane kernel is AVX2 assembly, so every target
// takes the striped path.
var nativeLanes laneKernel
