package hashfn

import (
	"testing"
	"testing/quick"
)

func TestPositionInSpace(t *testing.T) {
	s := Space{Bits: 10}
	f := func(key uint64) bool {
		p := s.PositionOf(key)
		return p >= 0 && p < s.Positions()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestScaledIsOrderPreserving(t *testing.T) {
	s := Space{Bits: 12}
	f := func(a, b uint64) bool {
		if a > b {
			a, b = b, a
		}
		return s.PositionOf(a) <= s.PositionOf(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestScaledExtremes(t *testing.T) {
	s := DefaultSpace()
	if got := s.PositionOf(0); got != 0 {
		t.Errorf("PositionOf(0) = %d", got)
	}
	if got := s.PositionOf(^uint64(0)); got != s.Positions()-1 {
		t.Errorf("PositionOf(max) = %d, want %d", got, s.Positions()-1)
	}
}

// Keys clustered in a tiny window land on one or two positions: the skew
// of the attribute distribution survives into routing, which is what the
// paper's skew experiments measure.
func TestScaledKeepsClusteredKeysTogether(t *testing.T) {
	s := Space{Bits: 16}
	scaled := map[int]bool{}
	base := uint64(1) << 40
	for i := uint64(0); i < 1000; i++ {
		scaled[s.PositionOf(base+i)] = true
	}
	if len(scaled) > 2 {
		t.Errorf("scaled hash spread clustered keys over %d positions", len(scaled))
	}
}

func TestSpaceValidate(t *testing.T) {
	if err := DefaultSpace().Validate(); err != nil {
		t.Errorf("default space invalid: %v", err)
	}
	for _, bad := range []Space{{Bits: 0}, {Bits: 31}} {
		if err := bad.Validate(); err == nil {
			t.Errorf("space %+v should be invalid", bad)
		}
	}
}

func TestRangeHalves(t *testing.T) {
	lo, hi := Range{10, 20}.Halves()
	if lo != (Range{10, 15}) || hi != (Range{15, 20}) {
		t.Errorf("halves = %v, %v", lo, hi)
	}
	// Odd width: lower half gets the smaller share.
	lo, hi = Range{0, 5}.Halves()
	if lo.Width()+hi.Width() != 5 || lo.Hi != hi.Lo {
		t.Errorf("odd halves = %v, %v", lo, hi)
	}
}

func TestRangeString(t *testing.T) {
	if (Range{1, 3}).String() != "[1,3)" {
		t.Errorf("range string: %s", Range{1, 3})
	}
}
