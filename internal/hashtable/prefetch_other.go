//go:build !amd64

package hashtable

import "ehjoin/internal/tuple"

// Off amd64 the group probe resolves its tuples without prefetching.
func prefetchSlots([]*tuple.Tuple) {}
