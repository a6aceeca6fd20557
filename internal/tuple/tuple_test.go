package tuple

import (
	"testing"
	"testing/quick"
)

func TestLayoutSizes(t *testing.T) {
	if got := DefaultLayout().LogicalSize(); got != 100 {
		t.Errorf("default logical size = %d, want 100", got)
	}
	for _, size := range []int{16, 100, 200, 400} {
		l := LayoutForTupleSize(size)
		if l.LogicalSize() != size {
			t.Errorf("LayoutForTupleSize(%d).LogicalSize() = %d", size, l.LogicalSize())
		}
	}
}

func TestLayoutForTupleSizePanicsBelowPhysical(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for tuple size below physical minimum")
		}
	}()
	LayoutForTupleSize(PhysicalSize - 1)
}

func TestRelationString(t *testing.T) {
	if RelR.String() != "R" || RelS.String() != "S" {
		t.Errorf("relation strings: %s, %s", RelR, RelS)
	}
	if Relation(9).String() != "Relation(9)" {
		t.Errorf("unknown relation string: %s", Relation(9))
	}
}

func TestBuilderCutsAtChunkSize(t *testing.T) {
	b := NewBuilder(RelR, DefaultLayout(), 3)
	var chunks []*Chunk
	for i := 0; i < 10; i++ {
		if c := b.Add(Tuple{Index: uint64(i), Key: uint64(i)}); c != nil {
			chunks = append(chunks, c)
		}
	}
	if c := b.Flush(); c != nil {
		chunks = append(chunks, c)
	}
	if len(chunks) != 4 {
		t.Fatalf("got %d chunks, want 4", len(chunks))
	}
	total := 0
	next := uint64(0)
	for i, c := range chunks {
		if i < 3 && len(c.Tuples) != 3 {
			t.Errorf("chunk %d has %d tuples, want 3", i, len(c.Tuples))
		}
		for _, tp := range c.Tuples {
			if tp.Index != next {
				t.Fatalf("tuple order broken: got index %d, want %d", tp.Index, next)
			}
			next++
			total++
		}
	}
	if total != 10 {
		t.Errorf("total tuples %d, want 10", total)
	}
	if b.Flush() != nil {
		t.Error("second flush should return nil")
	}
}

func TestBuilderDefaultChunkSize(t *testing.T) {
	b := NewBuilder(RelS, DefaultLayout(), 0)
	if b.chunkSize != DefaultChunkTuples {
		t.Errorf("default chunk size = %d, want %d", b.chunkSize, DefaultChunkTuples)
	}
}

func TestChunkLogicalBytes(t *testing.T) {
	c := &Chunk{Rel: RelR, Layout: LayoutForTupleSize(200), Tuples: make([]Tuple, 7)}
	if got := c.LogicalBytes(); got != 1400 {
		t.Errorf("LogicalBytes = %d, want 1400", got)
	}
}

func TestBuilderNeverDropsTuples(t *testing.T) {
	f := func(n uint16, chunkSize uint8) bool {
		cs := int(chunkSize%50) + 1
		b := NewBuilder(RelR, DefaultLayout(), cs)
		want := int(n % 2000)
		got := 0
		for i := 0; i < want; i++ {
			if c := b.Add(Tuple{Index: uint64(i)}); c != nil {
				got += len(c.Tuples)
			}
		}
		if c := b.Flush(); c != nil {
			got += len(c.Tuples)
		}
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
