package farrar

// lanesAVX2 is the lane kernel (lanes.go) in Go assembly on the 32 byte
// lanes of an AVX2 register (lanes8_amd64.s). Only a host with hasAVX2
// may call it.
//
//go:noescape
func lanesAVX2(prof, cols, he, harvest []byte, vmax *[laneCount]byte, bias, gapOE, gapE int) (slots int)

// nativeLanes is the lane kernel this host runs: lanesAVX2 with AVX2, none
// without.
var nativeLanes = func() laneKernel {
	if hasAVX2 {
		return lanesAVX2
	}
	return nil
}()
