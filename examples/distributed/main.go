// Distributed: run the join across real OS processes. This example is the
// coordinator — it re-executes its own binary as worker processes (the
// production path uses cmd/joind on separate machines), hosts the scheduler
// and the data sources itself, and distributes the join nodes across the
// workers over TCP.
//
// Run with: go run ./examples/distributed
package main

import (
	"fmt"
	"log"
	"net"
	"os"
	"os/exec"

	"ehjoin/internal/core"
	"ehjoin/internal/datagen"
	rt "ehjoin/internal/runtime"
	"ehjoin/internal/tcpnet"
)

const workerEnv = "EHJOIN_WORKER_CONNECT"

func config() core.Config {
	return core.Config{
		Algorithm:     core.Hybrid,
		InitialNodes:  2,
		MaxNodes:      8,
		Sources:       2,
		MemoryBudget:  2 << 20,
		ChunkTuples:   1000,
		Build:         datagen.Spec{Dist: datagen.Uniform, Tuples: 300_000, Seed: 41},
		Probe:         datagen.Spec{Dist: datagen.Uniform, Tuples: 300_000, Seed: 42},
		MatchFraction: 1.0,
	}
}

func main() {
	if addr := os.Getenv(workerEnv); addr != "" {
		runWorker(addr)
		return
	}

	const workers = 3
	cfg := config()

	// The coordinator takes this listener over: workers that lose their
	// connection redial it, and Close closes it.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}

	self, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	var procs []*exec.Cmd
	for i := 0; i < workers; i++ {
		cmd := exec.Command(self)
		cmd.Env = append(os.Environ(), workerEnv+"="+l.Addr().String())
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			log.Fatal(err)
		}
		procs = append(procs, cmd)
	}
	fmt.Printf("coordinator: spawned %d worker processes (pids", workers)
	for _, p := range procs {
		fmt.Printf(" %d", p.Process.Pid)
	}
	fmt.Println(")")

	conns := make([]net.Conn, workers)
	for i := range conns {
		if conns[i], err = l.Accept(); err != nil {
			log.Fatal(err)
		}
	}

	blob, err := core.EncodeConfig(cfg)
	if err != nil {
		log.Fatal(err)
	}
	ids, err := core.JoinNodeIDs(cfg)
	if err != nil {
		log.Fatal(err)
	}
	assignment := make(map[rt.NodeID]int)
	for i, id := range ids {
		assignment[id] = i % workers
	}

	coord, err := tcpnet.NewCoordinator(blob, assignment, l, conns)
	if err != nil {
		log.Fatal(err)
	}
	report, err := core.Execute(cfg, coord)
	coord.Close()
	for _, p := range procs {
		_ = p.Wait()
	}
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("join completed across %d processes: %d matches (checksum %#x)\n",
		workers+1, report.Matches, report.Checksum)
	fmt.Printf("cluster grew %d -> %d join nodes (%d replications) while distributed\n",
		report.InitialNodes, report.FinalNodes, report.Replications)

	// Cross-check against the deterministic simulator.
	simRep, err := core.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if simRep.Matches == report.Matches && simRep.Checksum == report.Checksum {
		fmt.Println("result matches the simulator's bit-for-bit — same protocol, different substrate")
	} else {
		fmt.Printf("MISMATCH vs simulator: %d/%#x\n", simRep.Matches, simRep.Checksum)
		os.Exit(1)
	}
}

func runWorker(addr string) {
	dial := func() (net.Conn, error) { return net.Dial("tcp", addr) }
	factory := func(blob []byte, id rt.NodeID) (rt.Actor, error) {
		cfg, err := core.DecodeConfig(blob)
		if err != nil {
			return nil, err
		}
		return core.NewJoinActor(cfg, id)
	}
	if err := tcpnet.RunWorker(dial, factory); err != nil {
		log.Fatal(err)
	}
}
