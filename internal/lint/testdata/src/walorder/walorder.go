// Package tcpnet is the walorder-analyzer fixture: every logged state
// transition (ack release, delivery apply, tombstone, epoch bump, phase
// barrier) must be preceded in its function by a logRecord call carrying
// the matching checkpoint kind; replay code is exempt, and a logRecord
// whose kind is not syntactically readable matches every kind.
package tcpnet

type CkptKind uint8

const (
	CkptHeader CkptKind = iota + 1
	CkptDelivery
	CkptEpoch
	CkptDeath
	CkptPhase
)

type CkptRecord struct {
	Kind   CkptKind
	Worker int32
}

const linkDead = 3

type session struct{ acked uint64 }

func (s *session) logged(seq uint64) {}
func (s *session) reset()            {}

// link mirrors tcpnet's connection end: the coordinator's per-worker view
// embeds it, so the tombstone is an assignment to a promoted field.
type link struct {
	state int
	sess  *session
}

type worker struct {
	link
}

type actor struct{}

func (a *actor) Receive(msg any) {}

type Coordinator struct {
	workers []*worker
	actors  map[int]*actor
	drains  int
}

func (c *Coordinator) logRecord(rec *CkptRecord) {}
func (c *Coordinator) headerRecord() *CkptRecord { return &CkptRecord{Kind: CkptHeader} }
func (c *Coordinator) bumpPeerEpoch(i int)       {}

// Log-before-act done right: record, then ack gate, then apply.
func (c *Coordinator) applyGood(i int, msg any) {
	c.logRecord(&CkptRecord{Kind: CkptDelivery})
	c.workers[i].sess.logged(1)
	c.actors[i].Receive(msg)
}

func (c *Coordinator) applyBad(i int, msg any) {
	c.actors[i].Receive(msg) // want `delivery applied \(Receive\) in applyBad before any logRecord\(Kind: CkptDelivery\)`
	c.logRecord(&CkptRecord{Kind: CkptDelivery})
}

func (c *Coordinator) ackBad(i int) {
	c.workers[i].sess.logged(7) // want `gated ack released \(logged\) in ackBad before any logRecord`
}

func (c *Coordinator) markBad(i int) {
	c.workers[i].state = linkDead // want `worker tombstoned \(state = linkDead\) in markBad before any logRecord\(Kind: CkptDeath\)`
	c.logRecord(&CkptRecord{Kind: CkptDeath, Worker: int32(i)})
}

// The same tombstone spelled through the embedded link is still flagged.
func (c *Coordinator) markBadViaLink(i int) {
	c.workers[i].link.state = linkDead // want `worker tombstoned \(state = linkDead\) in markBadViaLink before any logRecord\(Kind: CkptDeath\)`
	c.logRecord(&CkptRecord{Kind: CkptDeath, Worker: int32(i)})
}

func (c *Coordinator) markGood(i int) {
	c.logRecord(&CkptRecord{Kind: CkptDeath, Worker: int32(i)})
	c.workers[i].state = linkDead
}

// A record built elsewhere: the kind is not syntactically readable, so it
// counts for every act that follows.
func (c *Coordinator) wildcardGood(i int, rec *CkptRecord) {
	c.logRecord(rec)
	c.workers[i].sess.reset()
	c.drains++
}

func (c *Coordinator) phaseBad() {
	c.drains++ // want `phase barrier advanced \(drains\+\+\) in phaseBad before any logRecord\(Kind: CkptPhase\)`
	c.logRecord(&CkptRecord{Kind: CkptPhase})
}

// headerRecord() reads as CkptHeader — it must not satisfy an epoch act.
func (c *Coordinator) headerThenEpoch(i int) {
	c.logRecord(c.headerRecord())
	c.workers[i].sess.reset() // want `session reset in headerThenEpoch before any logRecord\(Kind: CkptEpoch\)`
}

type Snapshot struct{}

// Replay from a Snapshot re-applies records already in the log: exempt.
func (c *Coordinator) replayDeath(snap *Snapshot, i int) {
	c.workers[i].state = linkDead
}

// No Coordinator receiver or parameter: out of scope.
func freeStanding(w *worker) {
	w.state = linkDead
}

// An intentional exception must carry its reason.
func (c *Coordinator) reconnectOnly(i int) {
	//lint:allow walorder fixture: reconnect-only rung never has a checkpoint log by construction
	c.bumpPeerEpoch(i)
}
