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

	// home is the free list this chunk's array returns to on Release: the
	// list whose Builder cut it or whose DecodeBinary filled it; nil on
	// every other chunk.
	home *FreeList
}

// LogicalBytes returns the number of bytes this chunk occupies on the wire
// and in hash-table memory accounting.
func (c *Chunk) LogicalBytes() int {
	return len(c.Tuples) * c.Layout.LogicalSize()
}

// Release hands a chunk cut by a FreeList's Builder, or decoded by its
// DecodeBinary, back to that list; the caller must be the chunk's last
// holder, and the chunk is dead to it afterwards (DESIGN.md §15, "the last
// holder releases"). Every other chunk — assembled by hand around a slice
// of some larger array, or cut by a plain NewBuilder — is left alone.
// Built with the chunkpoison tag, Release first overwrites the array with
// a sentinel, so a holder that reads a chunk after releasing it breaks the
// join's checksum instead of reading a stale copy.
func (c *Chunk) Release() {
	fl := c.home
	if fl == nil {
		return
	}
	c.home = nil
	if poisonReleased {
		ts := c.Tuples[:cap(c.Tuples)]
		for i := range ts {
			ts[i] = poisonTuple
		}
	}
	c.Tuples = c.Tuples[:0]
	select {
	case fl.c <- c:
	default: // list full: the garbage collector takes it
	}
}

// poisonTuple is what a chunkpoison build writes over a released array.
var poisonTuple = Tuple{Index: 0xDEADBEEFDEADBEEF, Key: 0xBADC0FFEE0DDF00D}

// FreeList is a bounded stock of released chunks, safe for a releaser on
// another goroutine than the Builders or decoder drawing from it. On the
// send side a source's Builders draw from one list: a transport that
// serialises chunks (internal/tcpnet) releases each one after encoding it,
// and an engine that hands the chunk itself to the receiver (the
// simulator, a transport's in-process deliveries) has the join node that
// consumed it release it. On the receive side a worker's link readers
// decode into arrays from one list, and its join nodes release each chunk
// once they have stored or probed it. A steady stream so reuses the same
// few tuple arrays instead of allocating one per chunk.
type FreeList struct {
	c chan *Chunk
}

// NewFreeList returns a list that parks at most n released chunks.
func NewFreeList(n int) *FreeList {
	return &FreeList{c: make(chan *Chunk, n)}
}

// take returns a chunk homed to fl holding n zero or stale tuples: a
// parked one when its array is long enough, a fresh one otherwise. A nil
// fl always allocates, and homes nothing.
func (fl *FreeList) take(n int) *Chunk {
	var c *Chunk
	if fl != nil {
		select {
		case c = <-fl.c:
		default:
		}
	}
	if c == nil {
		c = new(Chunk)
	}
	ts := c.Tuples
	if cap(ts) < n {
		ts = make([]Tuple, n)
	}
	*c = Chunk{Tuples: ts[:n], home: fl}
	return c
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
