package tcpnet

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	wire "ehjoin/internal/wire"
)

// Deterministic network fault injection. A ChaosPlan is a schedule of
// one-shot transport faults pinned to byte offsets of a connection's read
// or write stream (or, for duplication, to a frame ordinal), so a given
// plan against a given workload misbehaves identically on every run —
// the property the chaos test suite and the -chaos CLI flag rely on.
//
// Plans come from ParseChaos, which accepts either a bare integer seed
// (a PRNG-derived schedule) or an explicit semicolon-separated script:
//
//	corrupt@OFF     flip one byte at write offset OFF
//	tear@OFF        truncate the write at OFF and drop the connection
//	dup@K           write the K-th reliable frame twice
//	drop@OFF        drop the connection at read offset OFF (mid-frame kills)
//	stallr@OFF:MS   stall the read crossing OFF for MS milliseconds
//	stallw@OFF:MS   stall the write crossing OFF for MS milliseconds
//
// Example: "corrupt@4096;stallr@20000:50;dup@3". Each event fires exactly
// once across every connection the plan wraps — a redialed connection
// only sees whatever the schedule has left, so a plan with one tear
// produces exactly one disconnect no matter how often the session resumes.

type chaosKind uint8

const (
	chaosCorrupt chaosKind = iota
	chaosTear
	chaosDup
	chaosDropRead
	chaosStallRead
	chaosStallWrite
)

// chaosNames spells each kind as the script grammar above does.
var chaosNames = [...]string{chaosCorrupt: "corrupt", chaosTear: "tear", chaosDup: "dup",
	chaosDropRead: "drop", chaosStallRead: "stallr", chaosStallWrite: "stallw"}

func (k chaosKind) String() string { return chaosNames[k] }

// stall reports whether k takes a duration (KIND@OFF:MS).
func (k chaosKind) stall() bool { return k == chaosStallRead || k == chaosStallWrite }

// chaosEvent is one scheduled fault. off is a byte offset of the wrapped
// connection's write stream (corrupt, tear, stallw), read stream (drop,
// stallr), or a 1-based reliable-frame ordinal (dup).
type chaosEvent struct {
	kind chaosKind
	off  int64
	dur  time.Duration
}

// ChaosPlan is a deterministic, consume-once schedule of transport
// faults, shared by every connection it wraps. Safe for concurrent use.
type ChaosPlan struct {
	mu     sync.Mutex
	desc   string
	events []chaosEvent
}

// ParseChaos builds a plan from a -chaos argument: a bare unsigned
// integer seeds a PRNG-derived schedule, anything else is parsed as the
// explicit script grammar above. An empty string yields a nil plan
// (chaos disabled).
func ParseChaos(s string) (*ChaosPlan, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	if seed, err := strconv.ParseUint(s, 10, 64); err == nil {
		return SeededChaosPlan(seed), nil
	}
	p := &ChaosPlan{desc: s}
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kind, arg, ok := strings.Cut(part, "@")
		if !ok {
			return nil, fmt.Errorf("chaos: %q: want KIND@ARG", part)
		}
		k := slices.Index(chaosNames[:], kind)
		if k < 0 {
			return nil, fmt.Errorf("chaos: unknown fault kind %q in %q", kind, part)
		}
		ev, num := chaosEvent{kind: chaosKind(k)}, arg
		if ev.kind.stall() {
			offs, ms, ok := strings.Cut(arg, ":")
			if !ok {
				return nil, fmt.Errorf("chaos: %q: want %s@OFF:MS", part, kind)
			}
			num = offs
			d, err := strconv.Atoi(ms)
			if err != nil || d < 0 {
				return nil, fmt.Errorf("chaos: %q: bad stall duration %q", part, ms)
			}
			ev.dur = time.Duration(d) * time.Millisecond
		}
		off, err := strconv.ParseInt(num, 10, 64)
		if err != nil || off < 0 || (ev.kind == chaosDup && off == 0) {
			return nil, fmt.Errorf("chaos: %q: bad offset %q", part, num)
		}
		ev.off = off
		p.events = append(p.events, ev)
	}
	if len(p.events) == 0 {
		return nil, fmt.Errorf("chaos: empty schedule %q", s)
	}
	return p, nil
}

// SeededChaosPlan derives a two-event schedule from a PRNG seed: one
// disruptive fault (corruption, torn write, or mid-frame kill) and one
// nuisance (stall or duplicate frame). Write-side offsets stay small so
// they fire even on modest worker write volumes; the same seed always
// yields the same schedule.
func SeededChaosPlan(seed uint64) *ChaosPlan {
	rng := rand.New(rand.NewSource(int64(seed)))
	var evs []chaosEvent
	switch rng.Intn(3) {
	case 0:
		evs = append(evs, chaosEvent{kind: chaosCorrupt, off: 1024 + rng.Int63n(4096)})
	case 1:
		evs = append(evs, chaosEvent{kind: chaosTear, off: 1024 + rng.Int63n(4096)})
	case 2:
		evs = append(evs, chaosEvent{kind: chaosDropRead, off: 8192 + rng.Int63n(32768)})
	}
	switch rng.Intn(3) {
	case 0:
		evs = append(evs, chaosEvent{kind: chaosStallRead,
			off: 1024 + rng.Int63n(8192), dur: time.Duration(5+rng.Intn(20)) * time.Millisecond})
	case 1:
		evs = append(evs, chaosEvent{kind: chaosStallWrite,
			off: 512 + rng.Int63n(2048), dur: time.Duration(5+rng.Intn(20)) * time.Millisecond})
	case 2:
		evs = append(evs, chaosEvent{kind: chaosDup, off: 1 + rng.Int63n(8)})
	}
	return &ChaosPlan{desc: fmt.Sprintf("seed:%d", seed), events: evs}
}

// String renders the remaining schedule for logs and reproduction
// instructions.
func (p *ChaosPlan) String() string {
	if p == nil {
		return "none"
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	parts := make([]string, 0, len(p.events))
	for _, ev := range p.events {
		if ev.kind.stall() {
			parts = append(parts, fmt.Sprintf("%s@%d:%d", ev.kind, ev.off, ev.dur/time.Millisecond))
		} else {
			parts = append(parts, fmt.Sprintf("%s@%d", ev.kind, ev.off))
		}
	}
	return fmt.Sprintf("%s [%s]", p.desc, strings.Join(parts, ";"))
}

// Wrap interposes the plan on conn. A nil plan returns conn unchanged.
func (p *ChaosPlan) Wrap(conn net.Conn) net.Conn {
	if p == nil {
		return conn
	}
	p.mu.Lock()
	track := false
	for _, ev := range p.events {
		if ev.kind == chaosDup {
			track = true
		}
	}
	p.mu.Unlock()
	return &chaosConn{Conn: conn, plan: p, trackFrames: track}
}

// peek returns a copy of the pending event with the smallest offset among
// kinds, if any.
func (p *ChaosPlan) peek(kinds ...chaosKind) (chaosEvent, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	best, found := chaosEvent{}, false
	for _, ev := range p.events {
		for _, k := range kinds {
			if ev.kind == k && (!found || ev.off < best.off) {
				best, found = ev, true
			}
		}
	}
	return best, found
}

// fire consumes the first pending event equal to ev, reporting whether
// this caller won it (events fire exactly once plan-wide).
func (p *ChaosPlan) fire(ev chaosEvent) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, e := range p.events {
		if e == ev {
			p.events = append(p.events[:i], p.events[i+1:]...)
			return true
		}
	}
	return false
}

// takeDup consumes a pending duplication event for the given 1-based
// reliable-frame ordinal.
func (p *ChaosPlan) takeDup(frame int64) bool {
	return p.fire(chaosEvent{kind: chaosDup, off: frame})
}

// chaosConn injects a ChaosPlan's faults into one net.Conn. The embedded
// Conn supplies Close, deadlines, and addresses unchanged.
type chaosConn struct {
	net.Conn
	plan *ChaosPlan

	wmu  sync.Mutex
	wOff int64
	// Write-side frame tracking, active only while a dup event is
	// pending: writes are chunked to frame boundaries so a duplicated
	// frame is injected at a boundary, never mid-frame.
	trackFrames bool
	parseBroken bool   // framing lost (e.g. we corrupted a length prefix)
	cur         []byte // current frame accumulating (length prefix + body)
	curNeed     int    // total frame size once the prefix is complete
	frames      int64  // completed reliable frames written

	rmu  sync.Mutex
	rOff int64
}

func (c *chaosConn) Write(p []byte) (int, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	written := 0
	for written < len(p) {
		rest := p[written:]
		ev, ok := c.plan.peek(chaosCorrupt, chaosTear, chaosStallWrite)
		if !ok || ev.off >= c.wOff+int64(len(rest)) {
			n, err := c.writeTracked(rest)
			written += n
			return written, err
		}
		pre := int(ev.off - c.wOff)
		if pre < 0 {
			pre = 0 // the offset slipped past (partial fire windows); fire now
		}
		if pre > 0 {
			n, err := c.writeTracked(rest[:pre])
			written += n
			if err != nil {
				return written, err
			}
		}
		if !c.plan.fire(ev) {
			continue // another connection won this event; re-plan
		}
		switch ev.kind {
		case chaosStallWrite:
			//lint:allow lockcheck the stall IS the injected fault; holding the write lock models a wedged peer socket
			time.Sleep(ev.dur)
		case chaosCorrupt:
			n, err := c.writeTracked([]byte{rest[pre] ^ 0xFF})
			written += n
			if err != nil {
				return written, err
			}
		case chaosTear:
			_ = c.Conn.Close()
			return written, fmt.Errorf("chaos: write torn at offset %d", ev.off)
		}
	}
	return written, nil
}

// writeTracked writes b through the frame tracker: with a dup event
// pending, writes are chunked to frame boundaries so the duplicate can be
// injected between frames.
func (c *chaosConn) writeTracked(b []byte) (int, error) {
	if !c.trackFrames || c.parseBroken {
		n, err := c.Conn.Write(b)
		c.wOff += int64(n)
		return n, err
	}
	written := 0
	for written < len(b) {
		span := c.span(len(b) - written)
		n, err := c.Conn.Write(b[written : written+span])
		c.wOff += int64(n)
		c.feed(b[written : written+n])
		written += n
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// span returns how many of avail bytes may be written before the current
// frame completes.
func (c *chaosConn) span(avail int) int {
	need := avail
	if len(c.cur) < frameHeaderLen {
		need = frameHeaderLen - len(c.cur)
	} else if c.curNeed > 0 {
		need = c.curNeed - len(c.cur)
	}
	return min(need, avail)
}

// feed advances the frame tracker over bytes just written.
func (c *chaosConn) feed(b []byte) {
	for len(b) > 0 && !c.parseBroken {
		take := c.span(len(b))
		c.cur = append(c.cur, b[:take]...)
		b = b[take:]
		if len(c.cur) == frameHeaderLen && c.curNeed == 0 {
			bodyLen := int(binary.LittleEndian.Uint32(c.cur))
			if bodyLen < minBodyLen || bodyLen > wire.MaxEnvelope {
				c.parseBroken = true // framing lost; disable duplication
				return
			}
			c.curNeed = frameHeaderLen + bodyLen
		}
		if c.curNeed > 0 && len(c.cur) == c.curNeed {
			c.frameDone()
		}
	}
}

// frameDone fires at each completed frame: reliable frames (nonzero seq)
// count toward the dup schedule and are rewritten verbatim when their
// ordinal is due — the receiver must shed the copy via sequence dedup.
func (c *chaosConn) frameDone() {
	seq := binary.LittleEndian.Uint64(c.cur[frameHeaderLen+4:])
	if seq > 0 {
		c.frames++
		if c.plan.takeDup(c.frames) {
			n, _ := c.Conn.Write(c.cur)
			c.wOff += int64(n)
		}
	}
	c.cur = c.cur[:0]
	c.curNeed = 0
}

func (c *chaosConn) Read(p []byte) (int, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	for {
		ev, ok := c.plan.peek(chaosDropRead, chaosStallRead)
		if ok && ev.off <= c.rOff {
			if !c.plan.fire(ev) {
				continue
			}
			if ev.kind == chaosStallRead {
				//lint:allow lockcheck the stall IS the injected fault; holding the read lock models a wedged peer socket
				time.Sleep(ev.dur)
				continue
			}
			_ = c.Conn.Close()
			return 0, fmt.Errorf("chaos: connection dropped at read offset %d", ev.off)
		}
		max := len(p)
		if ok {
			if gap := ev.off - c.rOff; gap < int64(max) {
				max = int(gap) // stop exactly at the event boundary
			}
		}
		if max <= 0 {
			max = 1
		}
		//lint:allow lockcheck net.Conn.Read under the chaos lock is the faulty-transport model itself, not engine code
		n, err := c.Conn.Read(p[:max])
		c.rOff += int64(n)
		return n, err
	}
}
