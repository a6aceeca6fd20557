//go:build !amd64

package tuple

// Off amd64 every pair folds through mixRunGeneric.
func mixRunVector([]Tuple, uint64) (int, uint64) { return 0, 0 }

func mixRunKernel() string { return "go" }
