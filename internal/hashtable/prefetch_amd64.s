#include "textflag.h"

// func prefetchSlots(ps []*tuple.Tuple)
//
// One PREFETCHT0 per pointer. A prefetch never faults and never changes a
// result: it only moves the line into the caches ahead of the load.
TEXT ·prefetchSlots(SB), NOSPLIT, $0-24
	MOVQ ps_base+0(FP), SI
	MOVQ ps_len+8(FP), CX
	TESTQ CX, CX
	JZ done

loop:
	MOVQ (SI), AX
	PREFETCHT0 (AX)
	ADDQ $8, SI
	DECQ CX
	JNZ loop

done:
	RET
