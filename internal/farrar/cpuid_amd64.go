package farrar

// cpuid and xgetbv (cpuid_amd64.s) are the host probe's instructions;
// xgetbv reads XCR0, the register state the OS saves.
func cpuid(leaf, sub uint32) (a, b, c, d uint32)
func xgetbv() (lo, hi uint32)

// hasAVX2 and hasAVX512VBMI are probed once. AVX2: the CPU has AVX
// (CPUID.1:ECX bit 28) and AVX2 (CPUID.7:EBX bit 5), and the OS has
// enabled XSAVE (CPUID.1:ECX bit 27) and saves the YMM upper halves (XCR0
// bits 1-2). AVX512VBMI, the 64-lane kernel's ISA: AVX2 as well,
// AVX512F (CPUID.7:EBX bit 16), AVX512BW (EBX bit 30) and VBMI (ECX bit
// 1), and the OS saves the opmask registers and both upper ZMM banks
// (XCR0 bits 5-7).
var hasAVX2, hasAVX512VBMI = func() (avx2, vbmi bool) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, c, _ := cpuid(1, 0)
	if maxLeaf < 7 || c&(1<<27) == 0 || c&(1<<28) == 0 {
		return false, false
	}
	xcr0, _ := xgetbv()
	_, b, c7, _ := cpuid(7, 0)
	avx2 = xcr0&6 == 6 && b&(1<<5) != 0
	vbmi = avx2 && xcr0&0xE6 == 0xE6 && b&(1<<16) != 0 && b&(1<<30) != 0 && c7&(1<<1) != 0
	return avx2, vbmi
}()

// ISA names the widest native 8-bit kernel this host runs: "avx512vbmi"
// (the 64-lane database scan beside AVX2 striped), "avx2" or "sse2" on
// amd64, "swar" elsewhere.
func ISA() string {
	switch {
	case hasAVX512VBMI:
		return "avx512vbmi"
	case hasAVX2:
		return "avx2"
	}
	return "sse2"
}
