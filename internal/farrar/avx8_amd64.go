package farrar

// avx8 is the native striped 8-bit kernel (a stripedKernel) on the 32 byte
// lanes of an AVX2 register (avx8_amd64.s). Only a host with hasAVX2 may
// call it.
//
//go:noescape
func avx8(prof *byte, rows *[256]uint32, target []byte, segLen int, cols *uint64, bias, gapOE, gapE int) (best int, done bool)

// nativeStriped is the striped choice this host runs: avx8 and avx16 with
// AVX2, neither without, where both rungs run the SWAR kernels.
var nativeStriped = func() stripedKernels {
	if hasAVX2 {
		return stripedKernels{score8: avx8, score16: avx16}
	}
	return stripedKernels{}
}()
