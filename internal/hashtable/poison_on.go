//go:build chunkpoison

package hashtable

import "ehjoin/internal/tuple"

// poison overwrites a spare block before the seal indexes into it, so a
// reader of a slot tagged empty reads a sentinel, not a stale tuple.
func poison(p []tuple.Tuple) []tuple.Tuple {
	for i := range p {
		p[i] = tuple.Tuple{Index: 0xDEADBEEFDEADBEEF, Key: 0xBADC0FFEE0DDF00D}
	}
	return p
}
