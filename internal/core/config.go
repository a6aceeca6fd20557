// Package core implements the paper's contribution: the three Expanding
// Hash-based Join Algorithms (split-based, replication-based, hybrid) and
// the non-expanding out-of-core baseline, together with the system
// architecture they run on — a scheduler, data sources, and join processes
// (§4.1) — expressed as runtime.Actors so the same code executes on the
// cluster simulator and the TCP transport.
package core

import (
	"fmt"

	"ehjoin/internal/datagen"
	"ehjoin/internal/hashfn"
	rt "ehjoin/internal/runtime"
	"ehjoin/internal/spill"
	"ehjoin/internal/tuple"
)

// Algorithm selects the join strategy.
type Algorithm uint8

const (
	// OutOfCore is the non-expanding baseline: the initial node set is
	// fixed and overflowing nodes join out of core on local disk.
	OutOfCore Algorithm = iota
	// Split is the split-based EHJA (§4.2.1): linear-hashing bucket splits
	// migrate half-ranges to recruited nodes.
	Split
	// Replication is the replication-based EHJA (§4.2.2): overflowed
	// ranges are replicated on recruited nodes; probes broadcast.
	Replication
	// Hybrid is the hybrid EHJA (§4.2.3): replication during build, then a
	// reshuffling step restores disjoint ranges before the probe phase.
	Hybrid
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case OutOfCore:
		return "out-of-core"
	case Split:
		return "split"
	case Replication:
		return "replication"
	case Hybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("Algorithm(%d)", uint8(a))
	}
}

// ParseAlgorithm is the inverse of String for the command lines: it also
// takes the short names "repl" and "ooc".
func ParseAlgorithm(s string) (Algorithm, error) {
	switch s {
	case "split":
		return Split, nil
	case "replication", "repl":
		return Replication, nil
	case "hybrid":
		return Hybrid, nil
	case "ooc", "out-of-core":
		return OutOfCore, nil
	default:
		return 0, fmt.Errorf("unknown algorithm %q (split|replication|hybrid|ooc)", s)
	}
}

// Algorithms lists every implemented strategy in presentation order.
func Algorithms() []Algorithm {
	return []Algorithm{Replication, Split, Hybrid, OutOfCore}
}

// Settings no experiment varies (DESIGN.md §17), fixed as constants.
const (
	// creditWindow is the base per-(source, destination) send window in
	// chunks: what a source starts each destination at, and where a join
	// node's advertised window returns before it overflows.
	creditWindow = 4
	// burstChunks is how many chunks' worth of tuples a source generates
	// per scheduling step.
	burstChunks = 2
	// spillPartitions is the spill rung's fan-out per node: how many
	// partitions an out-of-core node, or an expanding algorithm's node on
	// the spill rung, divides its build tuples into for eviction.
	spillPartitions = 32
)

// Config describes one join execution.
type Config struct {
	// Algorithm is the join strategy to run.
	Algorithm Algorithm
	// InitialNodes is the number of join nodes allocated before execution
	// starts (the paper's main tuning knob, Figures 2-5).
	InitialNodes int
	// MaxNodes bounds the total number of join nodes (working + potential);
	// the paper's cluster had 24. Defaults to 24.
	MaxNodes int
	// Sources is the number of data-source nodes streaming R and S.
	// Defaults to 8.
	Sources int
	// MemoryBudget is the per-node hash-table capacity in logical bytes.
	// Defaults to 64 MB, calibrated so 16 nodes exactly hold the paper's
	// default workload (10M 100-byte tuples), matching Figure 2's
	// observation that with 16 initial nodes the aggregate memory
	// suffices and all four algorithms coincide.
	MemoryBudget int64
	// NodeBudgets optionally overrides MemoryBudget per join node
	// (indexed 0..MaxNodes-1; zero entries fall back to MemoryBudget),
	// modelling a heterogeneous cluster. The scheduler recruits the
	// potential node with the largest budget first — the paper's §4.1.1
	// policy, which is only observable when nodes differ.
	NodeBudgets []int64
	// Space is the hash-table position space. Defaults to
	// hashfn.DefaultSpace (65 536 positions, scaled hashing).
	Space hashfn.Space
	// ChunkTuples is the communication chunk size. Defaults to the
	// paper's 10 000 tuples.
	ChunkTuples int
	// Build describes the build relation R; Probe describes the probe
	// relation S.
	Build, Probe datagen.Spec
	// MatchFraction is the fraction of probe tuples drawing their join
	// attribute from the build relation (see datagen.NewProbe).
	MatchFraction float64
	// Cost is the cluster cost model. Defaults to runtime.OSUMed.
	Cost rt.CostModel
	// MaxCreditWindow lets join nodes advertise a deeper send window than
	// the fixed base of creditWindow chunks while they have memory to absorb
	// it (DESIGN.md §15): each node moves the window it grants a source
	// between the base and this cap, following its remaining budget during
	// the build and sitting at the cap during the probe. Defaults to the base
	// — a fixed window, which is what the simulator's modelled network is
	// calibrated for; a cap below the base is rejected.
	MaxCreditWindow int
	// OOCPolicy selects which partitions an out-of-core node evicts when its
	// table overflows: spill.Grace (the paper's basic algorithm, default)
	// evicts every partition at the first overflow; spill.HybridHash (a
	// stronger baseline, for ablation A2) evicts the largest until the rest
	// fits. The expanding algorithms' spill rung always evicts largest
	// first.
	OOCPolicy spill.Policy
	// Cores selected the intra-node parallelism degree, which was removed:
	// a join node is one process owning one table (§4.1.3). 0 and 1 are
	// accepted and mean nothing; any other value is rejected.
	//
	// Deprecated: the field survives only because the frozen
	// bench/workloads.go sets Cores: 1; it goes with the benchmark refresh
	// (ROADMAP item 1a).
	Cores int
	// SpillEnabled arms the degradation ladder's fourth rung for the
	// expanding algorithms: when the scheduler cannot (or, per the cost
	// model, should not) recruit for an overflow, the full node evicts
	// hash partitions to local disk and keeps building instead of running
	// over budget, and the run completes without ExhaustedResources. The
	// out-of-core baseline ignores it (it runs on the same rung from the
	// start, evicting on its own overflow instead of on an order).
	SpillEnabled bool
	// HeavyThreshold arms heavy-hitter routing (DESIGN.md §11): after the
	// build (and any reshuffle), keys whose build mass strictly exceeds
	// HeavyThreshold × |R| are replicated build-side across their serving
	// group and their probe tuples partitioned round-robin over it instead
	// of broadcast. 0 disables the round. The out-of-core baseline ignores
	// it (routing never expands there, and spilled state cannot host key
	// replicas).
	HeavyThreshold float64
	// MaterializeOutput makes join nodes retain their matches in memory
	// (as a downstream in-memory operator would require) instead of
	// streaming them out. Accumulated output then competes with the hash
	// table for the node's memory budget, and the adaptive expansion of
	// the paper's §4 footnote 1 applies to the *probe* phase as well: an
	// overflowing node's table is cloned to a recruited node, which takes
	// over the range for the rest of the probe.
	//
	// It composes with neither the out-of-core baseline nor SpillEnabled,
	// for one reason: an overflowing output's only remedy is that clone,
	// and a clone carries the in-memory table, not spilled partitions. The
	// baseline never recruits, so its output would have nowhere to go, and
	// a node on the spill rung would hand its recruit a table missing every
	// evicted partition's build tuples.
	MaterializeOutput bool
	// BaseID offsets every node id this configuration uses (scheduler,
	// sources, join nodes). Single joins leave it zero; the multi-way
	// pipeline gives each stage a disjoint id range so several complete
	// stage instances share one engine.
	BaseID rt.NodeID
}

// outputLayout is the logical shape of a materialised match (the
// concatenation of the joined tuples).
func (c Config) outputLayout() tuple.Layout {
	return tuple.Layout{PayloadBytes: c.Build.Layout.PayloadBytes + c.Probe.Layout.PayloadBytes + tuple.PhysicalSize}
}

// IDStride returns the number of node ids one stage instance occupies.
func (c Config) IDStride() rt.NodeID {
	return rt.NodeID(1 + c.Sources + c.MaxNodes)
}

// normalized fills defaults and validates the configuration.
func (c Config) normalized() (Config, error) {
	if c.MaxNodes == 0 {
		c.MaxNodes = 24
	}
	if c.Sources == 0 {
		c.Sources = 8
	}
	if c.MemoryBudget == 0 {
		c.MemoryBudget = 64 << 20
	}
	if c.Space == (hashfn.Space{}) {
		c.Space = hashfn.DefaultSpace()
	}
	if c.ChunkTuples == 0 {
		c.ChunkTuples = tuple.DefaultChunkTuples
	}
	if c.Cost == (rt.CostModel{}) {
		c.Cost = rt.OSUMed()
	}
	if c.MaxCreditWindow == 0 {
		c.MaxCreditWindow = creditWindow
	}
	if c.MaxCreditWindow < creditWindow {
		return c, fmt.Errorf("core: MaxCreditWindow %d below the base window %d", c.MaxCreditWindow, creditWindow)
	}
	if c.Build.Layout.PayloadBytes == 0 {
		c.Build.Layout = tuple.DefaultLayout()
	}
	if c.Probe.Layout.PayloadBytes == 0 {
		c.Probe.Layout = tuple.DefaultLayout()
	}
	if c.Cores != 0 && c.Cores != 1 {
		return c, fmt.Errorf("core: Cores %d: intra-node parallelism was removed, a join node runs one table on one core (leave Cores unset)", c.Cores)
	}
	if c.InitialNodes <= 0 {
		return c, fmt.Errorf("core: InitialNodes must be positive, got %d", c.InitialNodes)
	}
	if c.Sources < 0 {
		return c, fmt.Errorf("core: Sources %d is negative", c.Sources)
	}
	if c.MemoryBudget < 0 {
		return c, fmt.Errorf("core: MemoryBudget %d is negative", c.MemoryBudget)
	}
	if c.ChunkTuples < 0 {
		return c, fmt.Errorf("core: ChunkTuples %d is negative", c.ChunkTuples)
	}
	if c.InitialNodes > c.MaxNodes {
		return c, fmt.Errorf("core: InitialNodes %d exceeds MaxNodes %d", c.InitialNodes, c.MaxNodes)
	}
	if err := c.Space.Validate(); err != nil {
		return c, err
	}
	if err := c.Build.Validate(); err != nil {
		return c, fmt.Errorf("core: build relation: %w", err)
	}
	if err := c.Probe.Validate(); err != nil {
		return c, fmt.Errorf("core: probe relation: %w", err)
	}
	if c.MatchFraction < 0 || c.MatchFraction > 1 {
		return c, fmt.Errorf("core: MatchFraction %v outside [0,1]", c.MatchFraction)
	}
	if len(c.NodeBudgets) > c.MaxNodes {
		return c, fmt.Errorf("core: %d node budgets for %d nodes", len(c.NodeBudgets), c.MaxNodes)
	}
	for i, b := range c.NodeBudgets {
		if b < 0 {
			return c, fmt.Errorf("core: node budget %d is negative", i)
		}
	}
	switch c.Algorithm {
	case OutOfCore, Split, Replication, Hybrid:
	default:
		return c, fmt.Errorf("core: unknown algorithm %d", c.Algorithm)
	}
	if c.MaterializeOutput && c.Algorithm == OutOfCore {
		return c, fmt.Errorf("core: MaterializeOutput requires an expanding algorithm")
	}
	if c.Algorithm == OutOfCore {
		c.SpillEnabled = false // the baseline's rung is armed from the start
		c.HeavyThreshold = 0   // no routing to bend: state lives in spill files
	}
	if c.HeavyThreshold < 0 || c.HeavyThreshold >= 1 {
		return c, fmt.Errorf("core: HeavyThreshold %v outside [0,1)", c.HeavyThreshold)
	}
	if c.SpillEnabled && c.MaterializeOutput {
		return c, fmt.Errorf("core: SpillEnabled is not supported with MaterializeOutput")
	}
	return c, nil
}

// Node id layout (offset by BaseID): scheduler, then sources, then join
// nodes.

func (c Config) schedulerID() rt.NodeID { return c.BaseID }

func (c Config) sourceID(i int) rt.NodeID { return c.BaseID + rt.NodeID(1+i) }

func (c Config) joinID(i int) rt.NodeID { return c.BaseID + rt.NodeID(1+c.Sources+i) }

func (c Config) isJoinNode(id rt.NodeID) bool {
	rel := int(id - c.BaseID)
	return rel > c.Sources && rel <= c.Sources+c.MaxNodes
}

// budgetFor returns the hash-memory budget of join node index i.
func (c Config) budgetFor(i int) int64 {
	if i < len(c.NodeBudgets) && c.NodeBudgets[i] > 0 {
		return c.NodeBudgets[i]
	}
	return c.MemoryBudget
}

// budgetOf returns the budget for a join node id.
func (c Config) budgetOf(id rt.NodeID) int64 {
	return c.budgetFor(int(id-c.BaseID) - 1 - c.Sources)
}
