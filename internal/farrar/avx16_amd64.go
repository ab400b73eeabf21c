package farrar

// avx16 is the native striped 16-bit kernel (a stripedKernel) on the 16
// word lanes of an AVX2 register (avx16_amd64.s), the rung escalate
// tries after the 8-bit tier. Only a host with hasAVX2 may call it.
//
//go:noescape
func avx16(prof *byte, rows *[256]uint32, target []byte, segLen int, cols *uint64, bias, gapOE, gapE int) (best int, done bool)
