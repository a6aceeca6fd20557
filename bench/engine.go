package main

import (
	"fmt"
	"sync/atomic"

	"ehjoin"
	"ehjoin/internal/core"
	rt "ehjoin/internal/runtime"
)

// tracedEngine interposes on a runtime.Engine: every actor is wrapped so
// that each Receive becomes a span (node, role, message type, mailbox
// wait), and each barrier-to-barrier phase of core.Execute becomes the
// span that parents them. The engine underneath (internal/live, or
// internal/sim for the simulator workload) runs unchanged; nothing inside
// the repository is instrumented.
type tracedEngine struct {
	inner    ehjoin.Engine
	tr       *tracer
	workload string
	root     int
	roleOf   func(rt.NodeID) string
	actors   []*tracedActor
	// phase is the open phase span's ID, or -1 between phases. Actors on
	// other goroutines read it, so it is atomic.
	phase atomic.Int64
}

// envelope carries a message with its send time through the inner engine's
// mailboxes, so the receiving wrapper can tell how long it waited.
type envelope struct {
	m    rt.Message
	sent int64
}

func (e *envelope) WireSize() int { return e.m.WireSize() }

func newTracedEngine(inner ehjoin.Engine, tr *tracer, workload string, root int, cfg ehjoin.Config) (*tracedEngine, error) {
	sched, err := core.SchedulerNodeID(cfg)
	if err != nil {
		return nil, err
	}
	joins, err := core.JoinNodeIDs(cfg)
	if err != nil {
		return nil, err
	}
	isJoin := make(map[rt.NodeID]bool, len(joins))
	for _, id := range joins {
		isJoin[id] = true
	}
	e := &tracedEngine{inner: inner, tr: tr, workload: workload, root: root}
	e.roleOf = func(id rt.NodeID) string {
		switch {
		case id == sched:
			return "sched"
		case isJoin[id]:
			return "join"
		default:
			return "source"
		}
	}
	e.phase.Store(-1)
	return e, nil
}

// Register implements runtime.Engine.
func (e *tracedEngine) Register(id rt.NodeID, a rt.Actor) {
	ta := &tracedActor{eng: e, inner: a, node: id, role: e.roleOf(id)}
	ta.env.actor = ta
	e.actors = append(e.actors, ta)
	e.inner.Register(id, ta)
}

// Inject implements runtime.Engine. core.Execute injects the message that
// starts a phase and then drains, so the first Inject after a barrier
// opens the phase span, named after that message.
func (e *tracedEngine) Inject(to rt.NodeID, m rt.Message) {
	if e.phase.Load() < 0 {
		e.phase.Store(int64(e.tr.begin(e.workload, fmt.Sprintf("core.phase %T", m), e.root)))
	}
	e.inner.Inject(to, &envelope{m: m, sent: e.tr.now()})
}

// Drain implements runtime.Engine and closes the phase span.
func (e *tracedEngine) Drain() error {
	err := e.inner.Drain()
	if id := e.phase.Swap(-1); id >= 0 {
		e.tr.end(int(id))
	}
	return err
}

// NowSeconds implements runtime.Engine.
func (e *tracedEngine) NowSeconds() float64 { return e.inner.NowSeconds() }

// finish hands every actor's spans to the tracer. Call after the last
// Drain, when no actor is running.
func (e *tracedEngine) finish() {
	for _, a := range e.actors {
		e.tr.merge(a.spans)
		a.spans = nil
	}
}

// tracedActor wraps one protocol actor. Engines deliver one message at a
// time to an actor, so its span buffer and env need no lock.
type tracedActor struct {
	eng   *tracedEngine
	inner rt.Actor
	node  rt.NodeID
	role  string
	env   tracedEnv
	spans []span
}

// Receive implements runtime.Actor.
func (a *tracedActor) Receive(env rt.Env, from rt.NodeID, m rt.Message) {
	en := m.(*envelope) // every path into the inner engine wraps
	start := a.eng.tr.now()
	a.env.Env = env
	a.inner.Receive(&a.env, from, en.m)
	a.spans = append(a.spans, span{
		Parent:   int(a.eng.phase.Load()),
		Name:     fmt.Sprintf("%T", en.m),
		Workload: a.eng.workload,
		Start:    start,
		End:      a.eng.tr.now(),
		Node:     int32(a.node),
		Role:     a.role,
		WaitNs:   start - en.sent,
	})
}

// tracedEnv is the Env handed to the wrapped actor: it stamps outgoing
// messages and passes everything else through.
type tracedEnv struct {
	rt.Env
	actor *tracedActor
}

// Send implements runtime.Env.
func (e *tracedEnv) Send(to rt.NodeID, m rt.Message) {
	e.Env.Send(to, &envelope{m: m, sent: e.actor.eng.tr.now()})
}

// actorTotals sums the actor spans of one workload by role.
type actorTotals struct {
	SourceBusyS, JoinBusyS, SchedBusyS float64
	JoinWaitS                          float64
	Msgs                               int64
}

func sumActorSpans(spans []span, workload string) actorTotals {
	var t actorTotals
	for _, s := range spans {
		if s.Workload != workload || s.Role == "" {
			continue
		}
		busy := float64(s.End-s.Start) / 1e9
		t.Msgs++
		switch s.Role {
		case "source":
			t.SourceBusyS += busy
		case "sched":
			t.SchedBusyS += busy
		case "join":
			t.JoinBusyS += busy
			t.JoinWaitS += float64(s.WaitNs) / 1e9
		}
	}
	return t
}
