#include "textflag.h"

// indexLanes selects the Index word of each of eight 16-byte tuples held in
// two ZMM registers (VPERMT2Q: lanes 0-7 name the first, 8-15 the second).
DATA indexLanes<>+0(SB)/8, $0
DATA indexLanes<>+8(SB)/8, $2
DATA indexLanes<>+16(SB)/8, $4
DATA indexLanes<>+24(SB)/8, $6
DATA indexLanes<>+32(SB)/8, $8
DATA indexLanes<>+40(SB)/8, $10
DATA indexLanes<>+48(SB)/8, $12
DATA indexLanes<>+56(SB)/8, $14
GLOBL indexLanes<>(SB), RODATA|NOPTR, $64

// func mixRunAVX512(run []Tuple, probeIndex uint64) uint64
//
// MixPair(b, p) = f(b*C1 ^ p*C2) with f(x) = g(x ^ x>>33), g(y) = y*C3 ^ (y*C3)>>29.
// p*C2 is one word per call, and (m ^ k)>>33 = m>>33 ^ k>>33, so with
// k = p*C2 ^ (p*C2)>>33 the first xor-shift is one three-way XOR:
// m ^ m>>33 ^ k for m = b*C1. The second xor-shift and the accumulation
// are another. len(run) is a positive multiple of 16.
TEXT ·mixRunAVX512(SB), NOSPLIT, $0-40
	MOVQ run_base+0(FP), SI
	MOVQ run_len+8(FP), CX
	MOVQ probeIndex+24(FP), AX
	SHRQ $4, CX

	MOVQ $0xC2B2AE3D27D4EB4F, DX
	IMULQ DX, AX
	MOVQ AX, DX
	SHRQ $33, DX
	XORQ DX, AX
	VPBROADCASTQ AX, Z28 // k
	MOVQ $0x9E3779B97F4A7C15, DX
	VPBROADCASTQ DX, Z29 // C1
	MOVQ $0xFF51AFD7ED558CCD, DX
	VPBROADCASTQ DX, Z30 // C3
	VMOVDQU64 indexLanes<>(SB), Z31
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1

loop:
	VMOVDQU64 (SI), Z2
	VMOVDQU64 64(SI), Z3
	VMOVDQU64 128(SI), Z4
	VMOVDQU64 192(SI), Z5
	VPERMT2Q Z3, Z31, Z2 // Z2 = Index of tuples 0-7
	VPERMT2Q Z5, Z31, Z4 // Z4 = Index of tuples 8-15
	VPMULLQ Z29, Z2, Z2
	VPMULLQ Z29, Z4, Z4
	VPSRLQ $33, Z2, Z6
	VPSRLQ $33, Z4, Z7
	VPTERNLOGQ $0x96, Z28, Z6, Z2
	VPTERNLOGQ $0x96, Z28, Z7, Z4
	VPMULLQ Z30, Z2, Z2
	VPMULLQ Z30, Z4, Z4
	VPSRLQ $29, Z2, Z6
	VPSRLQ $29, Z4, Z7
	VPTERNLOGQ $0x96, Z6, Z2, Z0
	VPTERNLOGQ $0x96, Z7, Z4, Z1
	ADDQ $256, SI
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
