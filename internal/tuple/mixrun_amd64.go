package tuple

// haveAVX512 is fixed at package init: the CPU has AVX512F (the 512-bit
// loads, shifts, XORs) and AVX512DQ (VPMULLQ), and the OS saves
// the opmask and ZMM state on a context switch (XCR0 bits 1, 2 and 5-7).
var haveAVX512 = detectAVX512()

func detectAVX512() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(1<<27) == 0 { // OSXSAVE: XGETBV is usable
		return false
	}
	const zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if xgetbv()&zmmState != zmmState {
		return false
	}
	const f, dq = 1 << 16, 1 << 17
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&f != 0 && ebx&dq != 0
}

// mixRunVector folds the longest prefix of words whose length is a
// multiple of 16 through the AVX-512 kernel against the probe word k, and
// returns the prefix length and its XOR; with no kernel, or fewer than 16
// words, it folds nothing.
func mixRunVector(words []uint64, k uint64) (int, uint64) {
	n := len(words) &^ 15
	if !haveAVX512 || n == 0 {
		return 0, 0
	}
	return n, mixRunAVX512(words[:n], k)
}

func mixRunKernel() string {
	if haveAVX512 {
		return "avx512"
	}
	return "go"
}

// mixRunAVX512 is mixRunGeneric over a positive multiple of 16 words
// (mixrun_amd64.s).
//
//go:noescape
func mixRunAVX512(words []uint64, k uint64) uint64

func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)
