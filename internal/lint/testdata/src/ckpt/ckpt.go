// Package wire is the ckptexhaustive-analyzer fixture: every switch over
// the CkptKind type must cover all declared kinds, carry a default arm,
// and fail typed (ErrUnknownKind) in that default. The clean record codec
// doubles as the role anchor the program-level check looks for.
package wire

import (
	"errors"
	"fmt"
)

var ErrUnknownKind = errors.New("unknown checkpoint record kind")

type CkptKind uint8

const (
	CkptHeader CkptKind = iota + 1
	CkptDelivery
	CkptDeath
)

// recordFields is the codec anchor: one function both encodes and decodes
// a record, so one exhaustive switch covers both directions.
func recordFields(k CkptKind) error {
	switch k {
	case CkptHeader, CkptDelivery, CkptDeath:
		return nil
	default:
		return fmt.Errorf("codec: %w (kind %d)", ErrUnknownKind, k)
	}
}

func replayMissingArm(k CkptKind) error {
	switch k { // want `missing an arm for CkptDeath`
	case CkptHeader:
		return nil
	case CkptDelivery:
		return nil
	default:
		return fmt.Errorf("replay: %w (kind %d)", ErrUnknownKind, k)
	}
}

func replayNoDefault(k CkptKind) error {
	switch k { // want `no default arm`
	case CkptHeader, CkptDelivery, CkptDeath:
		return nil
	}
	return nil
}

func replayUntypedDefault(k CkptKind) error {
	switch k {
	case CkptHeader, CkptDelivery, CkptDeath:
		return nil
	default: // want `does not reference ErrUnknownKind`
		return fmt.Errorf("replay: bad kind %d", k)
	}
}

// An annotated exception: a legacy dispatcher that predates a kind and is
// kept only to read old logs.
func legacyReplay(k CkptKind) error {
	//lint:allow ckptexhaustive fixture: legacy dispatcher kept for pre-CkptDeath log compatibility
	switch k {
	case CkptHeader, CkptDelivery:
		return nil
	default:
		return fmt.Errorf("replay: %w (kind %d)", ErrUnknownKind, k)
	}
}
