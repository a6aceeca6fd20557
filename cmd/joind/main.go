// Command joind is a join-node worker daemon: it connects to an ehjadist
// coordinator, receives its node assignment and configuration, and hosts
// the assigned join processes until the run completes.
//
// Usage:
//
//	joind -connect HOST:PORT
package main

import (
	"flag"
	"fmt"
	"net"
	"os"

	"ehjoin/internal/core"
	rt "ehjoin/internal/runtime"
	"ehjoin/internal/tcpnet"
	"ehjoin/internal/wire"
)

func main() {
	connect := flag.String("connect", "127.0.0.1:7420", "coordinator address")
	wireMode := flag.String("wire", "binary", "message encoding on the wire: binary|gob")
	chaos := flag.String("chaos", "", "deterministic network fault injection on this connection: a PRNG seed, or a schedule like corrupt@4096;tear@9000;dup@3")
	resume := flag.Bool("resume", true, "redial the coordinator and resume the session when the connection breaks")
	park := flag.Bool("park", false, "ride out a coordinator crash: keep redialing through the full jittered schedule and re-attach when a restarted coordinator rebinds, instead of treating EOF as shutdown")
	noSpill := flag.Bool("no-spill", false, "decline spill orders on this worker even when the coordinator enables the spill rung (e.g. no usable local disk)")
	peerListen := flag.String("peer-listen", ":0", "data-plane listener address other workers dial; the advertised host falls back to this worker's coordinator-facing address when unspecified")
	flag.Parse()

	switch *wireMode {
	case "binary":
		wire.SetBinary(true)
	case "gob":
		wire.SetBinary(false)
	default:
		fmt.Fprintf(os.Stderr, "joind: unknown wire mode %q (want binary or gob)\n", *wireMode)
		os.Exit(2)
	}

	plan, err := tcpnet.ParseChaos(*chaos)
	if err != nil {
		fmt.Fprintln(os.Stderr, "joind:", err)
		os.Exit(2)
	}
	dial := func() (net.Conn, error) {
		c, err := net.Dial("tcp", *connect)
		if err != nil {
			return nil, err
		}
		return plan.Wrap(c), nil
	}
	conn, err := dial()
	if err != nil {
		fmt.Fprintln(os.Stderr, "joind:", err)
		os.Exit(1)
	}
	defer conn.Close()

	factory := func(blob []byte, id rt.NodeID) (rt.Actor, error) {
		cfg, err := core.DecodeConfig(blob)
		if err != nil {
			return nil, err
		}
		// A host without usable local disk opts out: its nodes answer
		// spillOrder with an empty ack and the scheduler stops asking.
		if *noSpill {
			cfg.SpillEnabled = false
		}
		return core.NewJoinActor(cfg, id)
	}
	opts := []tcpnet.WorkerOption{tcpnet.WithWorkerP2P(*peerListen)}
	if *resume {
		opts = append(opts, tcpnet.WithWorkerResume(dial, 0, 0))
		if *park {
			opts = append(opts, tcpnet.WithWorkerPark())
		}
	}
	if *chaos != "" {
		// Peer links share this process's one chaos plan, so a scheduled
		// fault fires once per worker whichever link it lands on.
		opts = append(opts, tcpnet.WithWorkerPeerChaos(plan.Wrap))
	}
	if err := tcpnet.RunWorker(conn, factory, opts...); err != nil {
		fmt.Fprintln(os.Stderr, "joind:", err)
		os.Exit(1)
	}
}
