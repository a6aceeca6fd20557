package tuple

// MixRunGeneric is MixRun's pure-Go loop: the whole path off amd64 and on
// CPUs without AVX-512, the tail of every run, and the reference.
func MixRunGeneric(run []Tuple, probeIndex uint64) uint64 { return mixRunGeneric(run, probeIndex) }
