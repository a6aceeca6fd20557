#include "textflag.h"

// func mixRunAVX512(words []uint64, k uint64) uint64
//
// MixPair(b, p) = g(RunWord(b) ^ k) with g(y) = y*C3 ^ (y*C3)>>29 and k the
// probe's word (tuple.go), so each word costs one XOR with k, one VPMULLQ,
// one shift, and one three-way XOR into an accumulator. Two accumulators
// take eight words each per step. len(words) is a positive multiple of 16.
TEXT ·mixRunAVX512(SB), NOSPLIT, $0-40
	MOVQ words_base+0(FP), SI
	MOVQ words_len+8(FP), CX
	MOVQ k+24(FP), AX
	SHRQ $4, CX

	VPBROADCASTQ AX, Z28 // k
	MOVQ $0xFF51AFD7ED558CCD, DX
	VPBROADCASTQ DX, Z30 // C3
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1

loop:
	VPXORQ (SI), Z28, Z2
	VPXORQ 64(SI), Z28, Z3
	VPMULLQ Z30, Z2, Z2
	VPMULLQ Z30, Z3, Z3
	VPSRLQ $29, Z2, Z6
	VPSRLQ $29, Z3, Z7
	VPTERNLOGQ $0x96, Z6, Z2, Z0
	VPTERNLOGQ $0x96, Z7, Z3, Z1
	ADDQ $128, SI
	DECQ CX
	JNZ loop

	VPXORQ Z1, Z0, Z0
	VEXTRACTI64X4 $1, Z0, Y1
	VPXORQ Y1, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPXOR X1, X0, X0
	VPSHUFD $0x4E, X0, X1
	VPXOR X1, X0, X0
	VMOVQ X0, AX
	VZEROUPPER
	MOVQ AX, ret+32(FP)
	RET

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
