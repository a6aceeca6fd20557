package tcpnet

import "bytes"

// BufferedFrame is one decoded entry of a coordinator's retransmit buffer,
// for the external crash-recovery tests.
type BufferedFrame struct {
	Kind     uint8
	From, To int32
	// Canon is the frame re-encoded with its piggybacked ack zeroed: the
	// ack is the one field a restored coordinator cannot reproduce (no ack
	// survives a crash), and every other field — the message included —
	// compares byte for byte.
	Canon []byte
}

// RetransmitBuffer decodes the frames worker w's session holds for
// retransmission, keyed by sequence number, and reports whether the
// session can still resume (its window never overflowed) and whether the
// coordinator has declared the worker dead.
func RetransmitBuffer(c *Coordinator, w int) (frames map[uint64]BufferedFrame, resumable, dead bool, err error) {
	wc := c.workers[w]
	var raw [][]byte
	wc.sess.mu.Lock()
	for _, sf := range wc.sess.buf {
		raw = append(raw, sf.data)
	}
	wc.sess.mu.Unlock()
	frames = make(map[uint64]BufferedFrame, len(raw))
	for _, data := range raw {
		f, err := newWireReader(bytes.NewReader(data)).ReadFrame()
		if err != nil {
			return nil, false, false, err
		}
		canon, err := appendFrame(nil, f, f.Seq, 0)
		if err != nil {
			return nil, false, false, err
		}
		frames[f.Seq] = BufferedFrame{Kind: uint8(f.Kind), From: f.From, To: f.To, Canon: canon}
		putFrame(f)
	}
	return frames, wc.sess.resumable(), wc.state == linkDead, nil
}
