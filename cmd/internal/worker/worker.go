// Package worker is the one worker-process entry point: cmd/joind runs it
// on each worker host, and ehjadist runs it in the copies of itself it
// spawns with -worker. Both take the same flags.
package worker

import (
	"flag"
	"fmt"
	"net"
	"os"
	"runtime/pprof"

	"ehjoin/internal/core"
	rt "ehjoin/internal/runtime"
	"ehjoin/internal/tcpnet"
)

// Main parses a worker's flags from args (the command line after the
// program name, or after ehjadist's -worker), connects to the coordinator,
// and hosts the join nodes it is assigned until the run completes. It
// returns the process exit status: 2 for a usage error, 1 for a failed
// run. prog names the command in messages.
func Main(prog string, args []string) int {
	fs := flag.NewFlagSet(prog, flag.ExitOnError)
	var (
		connect    = fs.String("connect", "127.0.0.1:7420", "coordinator address")
		chaos      = fs.String("chaos", "", "deterministic network fault injection on this worker's connections: a PRNG seed, or a schedule like corrupt@4096;tear@9000;dup@3")
		noSpill    = fs.Bool("no-spill", false, "decline spill orders on this worker even when the coordinator enables the spill rung (e.g. no usable local disk)")
		peerListen = fs.String("peer-listen", ":0", "data-plane listener address other workers dial; the advertised host falls back to this worker's coordinator-facing address when unspecified")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of this worker to FILE")
	)
	_ = fs.Parse(args) // ExitOnError: a usage error exits 2 here
	fail := func(code int, err error) int {
		fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
		return code
	}
	plan, err := tcpnet.ParseChaos(*chaos)
	if err != nil {
		return fail(2, err)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(1, err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(1, err)
		}
		defer pprof.StopCPUProfile()
	}

	// All connections — initial and redialed — go through the same chaos
	// plan, so a scheduled fault fires exactly once per worker process no
	// matter how many reconnects it takes to get past it. A broken or
	// closed coordinator link is always redialed: a coordinator restarted
	// from its write-ahead log finds this worker parked, state intact.
	dial := func() (net.Conn, error) {
		c, err := net.Dial("tcp", *connect)
		if err != nil {
			return nil, err
		}
		return plan.Wrap(c), nil
	}
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
	if *chaos != "" {
		// Peer links share the process's one chaos plan, so a scheduled
		// fault fires once per worker whichever link it lands on.
		opts = append(opts, tcpnet.WithWorkerPeerChaos(plan.Wrap))
	}
	if err := tcpnet.RunWorker(dial, factory, opts...); err != nil {
		return fail(1, err)
	}
	return 0
}
