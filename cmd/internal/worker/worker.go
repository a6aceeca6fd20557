// Package worker is the one worker-process entry point: cmd/joind runs it
// on each worker host, and ehjadist runs it in the copies of itself it
// spawns with -worker. Both take the same flags.
package worker

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"

	"ehjoin/cmd/internal/cli"
	"ehjoin/internal/cluster"
	"ehjoin/internal/tcpnet"
)

// Main parses a worker's flags from args (the command line after the
// program name, or after ehjadist's -worker), connects to the coordinator,
// and hosts the join nodes it is assigned until the run completes. It
// returns the process exit status: 0 for -h, 2 for a usage error, 1 for a
// failed run. prog names the command in the messages it writes to stderr.
func Main(prog string, args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet(prog, flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		connect    = fs.String("connect", "127.0.0.1:7420", "coordinator address")
		chaos      = fs.String("chaos", "", "deterministic network fault injection on this worker's connections: a PRNG seed, or a schedule like corrupt@4096;tear@9000;dup@3")
		noSpill    = fs.Bool("no-spill", false, "decline spill orders on this worker even when the coordinator enables the spill rung (e.g. no usable local disk)")
		peerListen = fs.String("peer-listen", ":0", "data-plane listener address other workers dial; the advertised host falls back to this worker's coordinator-facing address when unspecified")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of this worker to FILE")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintf(stderr, "%s: %v\n", prog, err)
		return code
	}
	plan, err := tcpnet.ParseChaos(*chaos)
	if err != nil {
		return fail(2, err)
	}
	stop, err := cli.StartCPUProfile(*cpuProfile)
	if err != nil {
		return fail(1, err)
	}
	defer stop()

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
	opts := []tcpnet.WorkerOption{tcpnet.WithWorkerP2P(*peerListen)}
	if *chaos != "" {
		// Peer links share the process's one chaos plan, so a scheduled
		// fault fires once per worker whichever link it lands on.
		opts = append(opts, tcpnet.WithWorkerPeerChaos(plan.Wrap))
	}
	if err := tcpnet.RunWorker(dial, cluster.Factory(*noSpill), opts...); err != nil {
		return fail(1, err)
	}
	return 0
}
