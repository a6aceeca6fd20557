package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call (or batch of calls) into a layer, recorded from
// the benchmark's side of the boundary. Start and End are nanoseconds since
// the tracer was created; Parent is the ID of the span that caused this one
// (-1 for a root). The actor fields are set only on spans recorded by the
// interposing engine.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Node     int32  `json:"node,omitempty"`
	Role     string `json:"role,omitempty"`
	WaitNs   int64  `json:"wait_ns,omitempty"` // send -> receive mailbox wait
}

// tracer keeps spans in memory until the benchmark writes them out.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// begin opens a span and returns its ID.
func (t *tracer) begin(workload, name string, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: workload, Start: t.now()})
	return id
}

// end closes a span and returns its duration in nanoseconds.
func (t *tracer) end(id int) int64 {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return now - t.spans[id].Start
}

// merge adopts finished spans an actor recorded in its own buffer (so the
// hot path takes no lock), assigning their IDs.
func (t *tracer) merge(batch []span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range batch {
		s.ID = len(t.spans)
		t.spans = append(t.spans, s)
	}
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, indexed by span ID, each span's duration minus the
// part of its interval that its child spans cover. Children may overlap
// one another (concurrent actors under one phase span), so the covered
// part is the length of the union of their intervals, clipped to the
// parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, p := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered int64
		reach := p.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < reach {
				lo = reach
			}
			if hi > p.End {
				hi = p.End
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = p.End - p.Start - covered
	}
	return self
}
