// Package cluster is the one driver of a distributed join over tcpnet
// (DESIGN.md §2): the worker's actor factory, the placement of join nodes
// on workers, the failure handler that turns a dead worker into node
// deaths for the scheduler, and the supervisor that restarts a killed
// coordinator from its write-ahead log. Callers accept their own worker
// connections, so a test can wrap them in chaos, a kill or a hung worker.
package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"

	"ehjoin/internal/core"
	rt "ehjoin/internal/runtime"
	"ehjoin/internal/tcpnet"
)

// Factory returns a worker's actor factory: it decodes the run's config
// blob and builds join node id. With noSpill (joind -no-spill, a host
// without usable local disk) the node answers spill orders with an empty
// ack, and the scheduler stops asking it.
func Factory(noSpill bool) tcpnet.ActorFactory {
	return func(blob []byte, id rt.NodeID) (rt.Actor, error) {
		cfg, err := core.DecodeConfig(blob)
		if err != nil {
			return nil, err
		}
		cfg.SpillEnabled = cfg.SpillEnabled && !noSpill
		return core.NewJoinActor(cfg, id)
	}
}

// Setup is what a run's coordinator needs besides its config, listener
// and worker connections.
type Setup struct {
	// Recover feeds each failed worker's nodes to the scheduler as node
	// deaths, so the run re-streams their state instead of failing.
	Recover bool
	// WAL, if set, is the write-ahead log Run restarts a killed
	// coordinator from.
	WAL *os.File
	// Options returns the tcpnet options of coordinator incarnation n: 0
	// is the first, n the one restored after the n-th kill.
	Options func(n int) []tcpnet.Option
	// Logf, if set, reports worker failures and coordinator restarts.
	Logf func(format string, args ...any)
}

// Cluster is the coordinator side of one distributed run.
type Cluster struct {
	cfg      core.Config
	s        Setup
	sched    rt.NodeID
	addr     string // the workers' dial address, rebound by Restart
	coord    *tcpnet.Coordinator
	rs       *core.ResumeState // set by Restart: Run resumes
	restarts int
}

// Start places join node i of cfg on worker i mod len(conns), where
// conns[w] is worker w's connection accepted from l, and builds the
// coordinator. The cluster owns l from here on: workers redial it, Close
// closes it, and an error return has closed it.
func Start(cfg core.Config, l net.Listener, conns []net.Conn, s Setup) (*Cluster, error) {
	blob, err := core.EncodeConfig(cfg)
	if err == nil && len(conns) == 0 {
		err = tcpnet.ErrNoWorkers
	}
	if err != nil {
		l.Close()
		return nil, err
	}
	ids, _ := core.JoinNodeIDs(cfg) // neither fails: EncodeConfig accepted cfg
	sched, _ := core.SchedulerNodeID(cfg)
	assignment := make(map[rt.NodeID]int, len(ids))
	for i, id := range ids {
		assignment[id] = i % len(conns)
	}
	c := &Cluster{cfg: cfg, s: s, sched: sched, addr: l.Addr().String()}
	if c.coord, err = tcpnet.NewCoordinator(blob, assignment, l, conns, c.options()...); err != nil {
		return nil, err
	}
	return c, nil
}

// Coordinator returns the current coordinator, the run's engine.
func (c *Cluster) Coordinator() *tcpnet.Coordinator { return c.coord }

// Run drives the join to its end: core.Execute on the first coordinator
// (core.ResumeExecute on one Restart restored), and after each kill
// Restart and core.ResumeExecute. Only a coordinator with Setup.WAL can
// be killed: tcpnet refuses a crash point without a checkpoint.
func (c *Cluster) Run() (*core.Report, error) {
	rep, err := c.execute()
	for errors.Is(err, tcpnet.ErrCoordKilled) {
		c.logf("coordinator died (%v); restarting from %s", err, c.s.WAL.Name())
		if err = c.Restart(); err != nil {
			return nil, err
		}
		rep, err = c.execute()
	}
	return rep, err
}

func (c *Cluster) execute() (*core.Report, error) {
	if c.rs != nil {
		return core.ResumeExecute(c.rs, c.coord)
	}
	return core.Execute(c.cfg, c.coord)
}

// Restart is the supervisor's step after a kill (DESIGN.md §12), when
// only Setup.WAL and the parked workers survive: it closes the killed
// coordinator, replays the log into fresh local actors and a restored
// coordinator on the rebound dial address, and leaves Run to resume at
// the phase step where the killed one died. The restored coordinator
// appends to the same log, so a second kill replays the whole history.
// Coordinator returns the killed coordinator before Restart and the
// restored one after it.
func (c *Cluster) Restart() error {
	c.coord.Close()
	logged, err := os.ReadFile(c.s.WAL.Name())
	if err != nil {
		return err
	}
	snap, err := tcpnet.ReadSnapshot(bytes.NewReader(logged))
	if err != nil {
		return err
	}
	rs, err := core.PrepareResume(snap.CfgBlob())
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", c.addr)
	if err != nil {
		return fmt.Errorf("rebinding %s: %w", c.addr, err)
	}
	c.restarts++
	restored, err := tcpnet.RestoreCoordinator(snap, rs.Actors(), l, c.options()...)
	if err != nil {
		return fmt.Errorf("restoring from checkpoint: %w", err)
	}
	c.coord, c.rs = restored, rs
	return nil
}

// Close closes the current coordinator: its workers are told to shut
// down and its listener closes.
func (c *Cluster) Close() { c.coord.Close() }

// options is the current incarnation's option set. The failure handler
// runs inside the current coordinator's Drain, and Restart replaces
// c.coord only after that Drain has returned.
func (c *Cluster) options() []tcpnet.Option {
	var opts []tcpnet.Option
	if c.s.WAL != nil {
		opts = append(opts, tcpnet.WithCheckpoint(c.s.WAL))
	}
	if c.s.Recover {
		opts = append(opts, tcpnet.WithFailureHandler(func(w int, nodes []rt.NodeID, cause error) {
			c.logf("worker %d failed (%v); recovering %d node(s)", w, cause, len(nodes))
			for _, n := range nodes {
				c.coord.Inject(c.sched, core.NodeDeadMessage(n))
			}
		}))
	}
	if c.s.Options != nil {
		opts = append(opts, c.s.Options(c.restarts)...)
	}
	return opts
}

func (c *Cluster) logf(format string, args ...any) {
	if c.s.Logf != nil {
		c.s.Logf(format, args...)
	}
}
