package tuple

// DefaultChunkTuples is the number of tuples per communication chunk. The
// paper's communication-volume figures (4 and 11) report volume in chunks of
// 10 000 tuples.
const DefaultChunkTuples = 10000

// Chunk is a batch of tuples from one relation travelling between a data
// source (or a forwarding join node) and a join node. Chunks are the unit of
// buffering and of communication accounting.
type Chunk struct {
	Rel    Relation
	Tuples []Tuple
	// Layout records the logical tuple shape so receivers can account
	// memory and the network can charge transfer time.
	Layout Layout

	// home is the free list whose Builder cut this chunk, the only kind
	// Release recycles; nil on every other chunk.
	home *FreeList
}

// LogicalBytes returns the number of bytes this chunk occupies on the wire
// and in hash-table memory accounting.
func (c *Chunk) LogicalBytes() int {
	return len(c.Tuples) * c.Layout.LogicalSize()
}

// Release hands a chunk cut by a FreeList's Builder back to that list for
// the Builder's next cut; the caller must hold the only reference, and the
// chunk is dead to it afterwards. Every other chunk — decoded from the wire,
// assembled by hand around a slice of some larger array, or cut by a plain
// NewBuilder — is left alone.
func (c *Chunk) Release() {
	fl := c.home
	if fl == nil {
		return
	}
	c.home = nil
	c.Tuples = c.Tuples[:0]
	select {
	case fl.c <- c:
	default: // list full: the garbage collector takes it
	}
}

// FreeList is a bounded stock of released chunks, safe for a releaser on
// another goroutine than the Builders drawing from it. A transport that
// serialises chunks (internal/tcpnet) releases each one after encoding it,
// so a steady stream reuses the same few tuple arrays instead of allocating
// one per chunk; where nothing is ever released (the simulator, the
// goroutine engine) the list stays empty and every cut allocates.
type FreeList struct {
	c chan *Chunk
}

// NewFreeList returns a list that parks at most n released chunks.
func NewFreeList(n int) *FreeList {
	return &FreeList{c: make(chan *Chunk, n)}
}

// NewBuilder is tuple.NewBuilder drawing from, and marking its chunks
// releasable to, fl.
func (fl *FreeList) NewBuilder(rel Relation, layout Layout, chunkSize int) *Builder {
	b := NewBuilder(rel, layout, chunkSize)
	b.free = fl
	return b
}

// Builder accumulates tuples destined for a single receiver and cuts them
// into fixed-size chunks, mirroring the per-join-process buffers kept by the
// paper's data sources (§4.1.2).
type Builder struct {
	rel       Relation
	layout    Layout
	chunkSize int
	pending   []Tuple
	// recycled is the released chunk whose array pending is filling, to be
	// the next cut's header too; nil when pending was freshly allocated.
	recycled *Chunk
	free     *FreeList // nil: every chunk is freshly allocated
}

// NewBuilder returns a Builder producing chunks of at most chunkSize tuples.
func NewBuilder(rel Relation, layout Layout, chunkSize int) *Builder {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkTuples
	}
	return &Builder{rel: rel, layout: layout, chunkSize: chunkSize}
}

// Add appends one tuple. If the buffer reaches the chunk size, the filled
// chunk is returned and the buffer reset; otherwise Add returns nil.
func (b *Builder) Add(t Tuple) *Chunk {
	if b.pending == nil {
		b.pending = b.blank()
	}
	b.pending = append(b.pending, t)
	if len(b.pending) == b.chunkSize {
		return b.cut()
	}
	return nil
}

// blank returns an empty array to fill: a released chunk's when the free
// list has one, a fresh one otherwise.
func (b *Builder) blank() []Tuple {
	if b.free != nil {
		select {
		case b.recycled = <-b.free.c:
			return b.recycled.Tuples // emptied by Release
		default:
		}
	}
	return make([]Tuple, 0, b.chunkSize)
}

// Flush returns any partially filled chunk, or nil if the buffer is empty.
func (b *Builder) Flush() *Chunk {
	if len(b.pending) == 0 {
		return nil
	}
	return b.cut()
}

func (b *Builder) cut() *Chunk {
	c := b.recycled
	if c == nil {
		c = new(Chunk)
	}
	*c = Chunk{Rel: b.rel, Tuples: b.pending, Layout: b.layout, home: b.free}
	b.pending, b.recycled = nil, nil
	return c
}
