package hashtable

import "ehjoin/internal/tuple"

// prefetchSlots asks the CPU to start loading the cache line of every slot
// in ps and returns without waiting for any of them (prefetch_amd64.s).
// PREFETCHT0 is SSE, part of the amd64 baseline, so no feature check.
//
//go:noescape
func prefetchSlots(ps []*tuple.Tuple)
