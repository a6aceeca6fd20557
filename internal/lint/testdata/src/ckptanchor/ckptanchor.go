// Package wire is the ckptexhaustive anchor fixture: a checkpoint package
// whose record codec is gone (or renamed) must fail the lint gate at the
// package, because no function named recordFields dispatches over CkptKind.
package wire // want `no switch over CkptKind found in recordFields`

import (
	"errors"
	"fmt"
)

var ErrUnknownKind = errors.New("unknown checkpoint record kind")

type CkptKind uint8

const (
	CkptHeader CkptKind = iota + 1
	CkptDeath
)

// appendRecord dispatches exhaustively, but under a name the anchor table
// does not know.
func appendRecord(k CkptKind) error {
	switch k {
	case CkptHeader, CkptDeath:
		return nil
	default:
		return fmt.Errorf("encode: %w (kind %d)", ErrUnknownKind, k)
	}
}
