//go:build !amd64

package tuple

// Off amd64 every word folds through mixRunGeneric.
func mixRunVector([]uint64, uint64) (int, uint64) { return 0, 0 }

func mixRunKernel() string { return "go" }
