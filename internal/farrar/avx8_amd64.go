package farrar

// avx8 is sse8 on 32-byte segments and the 32 byte lanes of an AVX2
// register (avx8_amd64.s). Only a host with hasAVX2 may call it.
//
//go:noescape
func avx8(prof *byte, rows *[256]uint32, target []byte, segLen int, cols *uint64, bias, gapOE, gapE int) (best int, done bool)

// avx2MinQuery is the shortest query given 32 lanes: below it a column
// has too few segments to pay for the wider shift and lazy-F test, and
// SSE2 is as fast or faster (BenchmarkScore8ByLen).
const avx2MinQuery = 64

// native8Lanes picks the native 8-bit kernel's lanes for an m-residue query.
func native8Lanes(avx2 bool, m int) int {
	if avx2 && m >= avx2MinQuery {
		return 32
	}
	return 16
}
