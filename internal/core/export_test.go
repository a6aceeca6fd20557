package core

import (
	"testing"

	rt "ehjoin/internal/runtime"
)

// StartTCP starts a loopback tcpnet cluster that hosts cfg's join nodes
// on worker goroutines and returns its coordinator as the engine, and a
// stop that closes it and waits for the workers. wrap sees each join
// actor a worker builds and returns what the worker runs in its place.
// The cluster is built by internal/cluster, which imports core, so only
// the external test package can build it: tcpcluster_test.go sets
// StartTCP when the test binary starts.
var StartTCP func(t *testing.T, cfg Config, wrap func(rt.NodeID, rt.Actor) rt.Actor) (eng rt.Engine, stop func())
