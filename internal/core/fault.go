package core

import (
	"fmt"
	"math"

	"ehjoin/internal/sim"
)

// Fault describes one injected join-node crash. The node stops processing
// at AtSec of virtual time (messages in flight to it are lost), and the
// scheduler learns of the death DetectSec later — modelling the detection
// window of a heartbeat-based failure detector.
type Fault struct {
	// JoinNode indexes the join-node id space [0, MaxNodes); the initial
	// working nodes are the low indices.
	JoinNode int
	// AtSec is the virtual crash time. Fault plans are applied before the
	// run starts, so the crash should fall within the build phase; a later
	// time still crashes the node but is handled as soon as the scheduler
	// processes the notification.
	AtSec float64
	// DetectSec is the detection delay; zero means DefaultDetectSec.
	DetectSec float64
}

// FaultPlan is a deterministic fault-injection schedule for simulated runs.
type FaultPlan struct {
	Faults []Fault
}

// DefaultDetectSec is the assumed failure-detection latency when a Fault
// does not specify one: in the ballpark of a few heartbeat intervals on a
// LAN.
const DefaultDetectSec = 0.02

// maxFaultSec bounds a crash time and a detection delay (about 73 years),
// so that their sum in nanoseconds fits an int64.
const maxFaultSec = math.MaxInt64 / 4e9

// ApplyFaultPlan arms a simulator with the plan's crashes and schedules the
// matching death notifications to the scheduler. Call before Execute.
func ApplyFaultPlan(cfg Config, eng *sim.Sim, plan FaultPlan) error {
	n, err := cfg.normalized()
	if err != nil {
		return err
	}
	for _, f := range plan.Faults {
		if f.JoinNode < 0 || f.JoinNode >= n.MaxNodes {
			return fmt.Errorf("core: fault plan: join node %d out of range [0,%d)", f.JoinNode, n.MaxNodes)
		}
		// NaN fails every comparison, so each check is written to pass only
		// a usable time; the bound keeps crash plus detection in int64 ns.
		if !(f.AtSec >= 0 && f.AtSec <= maxFaultSec) {
			return fmt.Errorf("core: fault plan: crash time %v is not in [0, %v] seconds", f.AtSec, maxFaultSec)
		}
		det := f.DetectSec
		if !(det <= maxFaultSec) {
			return fmt.Errorf("core: fault plan: detection delay %v is not at most %v seconds", det, maxFaultSec)
		}
		if det <= 0 {
			det = DefaultDetectSec
		}
		id := n.joinID(f.JoinNode)
		atNs := int64(f.AtSec * 1e9)
		eng.ApplyFaults(sim.FaultPlan{Crashes: []sim.Crash{{Node: id, AtNs: atNs}}})
		eng.InjectAt(atNs+int64(det*1e9), n.schedulerID(), &nodeDead{Node: id})
	}
	return nil
}

// RunWithFaults executes the configured join on the cluster simulator with
// the given fault plan, exercising the failure-recovery protocol under
// fully reproducible virtual time.
func RunWithFaults(cfg Config, plan FaultPlan) (*Report, error) {
	n, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	eng := sim.New(n.Cost)
	if err := ApplyFaultPlan(n, eng, plan); err != nil {
		return nil, err
	}
	return Execute(n, eng)
}
