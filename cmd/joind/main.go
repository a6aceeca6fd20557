// Command joind is a join-node worker daemon: it connects to an ehjadist
// coordinator, receives its node assignment and configuration, and hosts
// the assigned join processes until the run completes.
//
// Usage:
//
//	joind -connect HOST:PORT
package main

import (
	"os"

	"ehjoin/cmd/internal/worker"
)

func main() {
	os.Exit(worker.Main("joind", os.Args[1:]))
}
