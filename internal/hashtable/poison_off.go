//go:build !chunkpoison

package hashtable

import "ehjoin/internal/tuple"

// poison returns p: only a chunkpoison build overwrites spare blocks.
func poison(p []tuple.Tuple) []tuple.Tuple { return p }
