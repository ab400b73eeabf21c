package farrar

// cpuid and xgetbv (cpuid_amd64.s) are the AVX2 probe's instructions;
// xgetbv reads XCR0, the register state the OS saves.
func cpuid(leaf, sub uint32) (a, b, c, d uint32)
func xgetbv() (lo, hi uint32)

// hasAVX2 is probed once: the CPU has AVX (CPUID.1:ECX bit 28) and AVX2
// (CPUID.7:EBX bit 5), and the OS has enabled XSAVE (CPUID.1:ECX bit 27)
// and saves the YMM upper halves (XCR0 bits 1-2).
var hasAVX2 = func() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, c, _ := cpuid(1, 0)
	if maxLeaf < 7 || c&(1<<27) == 0 || c&(1<<28) == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	_, b, _, _ := cpuid(7, 0)
	return xcr0&6 == 6 && b&(1<<5) != 0
}()

// ISA names the widest native 8-bit kernel this host runs: "avx2" or
// "sse2" on amd64, "swar" elsewhere.
func ISA() string {
	if hasAVX2 {
		return "avx2"
	}
	return "sse2"
}
