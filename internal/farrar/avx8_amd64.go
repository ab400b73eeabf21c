package farrar

// avx8 is the native striped kernel (a stripedKernel) on the 32 byte
// lanes of an AVX2 register (avx8_amd64.s). Only a host with hasAVX2 may
// call it.
//
//go:noescape
func avx8(prof *byte, rows *[256]uint32, target []byte, segLen int, cols *uint64, bias, gapOE, gapE int) (best int, done bool)

// nativeStriped is the striped 8-bit kernel this host runs: avx8 with
// AVX2, none without, where scoreNative8 runs the SWAR kernel.
var nativeStriped = func() stripedKernel {
	if hasAVX2 {
		return avx8
	}
	return nil
}()
