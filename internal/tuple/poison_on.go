//go:build chunkpoison

package tuple

// poisonReleased: this build overwrites every released array (Chunk.Release).
const poisonReleased = true
