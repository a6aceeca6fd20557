//go:build !chunkpoison

package tuple

// poisonReleased: without the chunkpoison tag Release leaves arrays as they are.
const poisonReleased = false
