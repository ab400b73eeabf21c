package farrar

// lanesAVX2 is the lane kernel (lanes.go) in Go assembly on the 32 byte
// lanes of an AVX2 register (lanes8_amd64.s). Only a host with hasAVX2
// may call it.
//
//go:noescape
func lanesAVX2(prof, cols, he, harvest, vmax []byte, bias, gapOE, gapE int) (slots int)

// nativeLanes is the lane kernel this host runs: lanes64 with AVX-512 BW
// and VBMI, lanesAVX2 with AVX2 only, none without.
var nativeLanes = func() laneKernel {
	switch {
	case hasAVX512VBMI:
		return laneKernel{64, lanes64}
	case hasAVX2:
		return laneKernel{32, lanesAVX2}
	}
	return laneKernel{}
}()
