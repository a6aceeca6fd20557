// Package ehjoin implements the Expanding Hash-based Join Algorithms
// (EHJAs) of Zhang, Kurc, Pan, Catalyurek, Narayanan, Wyckoff and Saltz,
// "Strategies for Using Additional Resources in Parallel Hash-based Join
// Algorithms" (HPDC 2004), together with the cluster substrate they run on.
//
// Three adaptive algorithms avoid hash-bucket overflow by recruiting
// additional cluster nodes during the hash-table building phase:
//
//   - Split: linear-hashing bucket splits migrate half-ranges to new nodes
//     (after Amin et al.); probing stays unicast.
//   - Replication: the overflowed range is replicated on a new node with no
//     bulk migration; probe tuples for replicated ranges are broadcast.
//   - Hybrid: replication during building, then a reshuffling step
//     re-partitions replicated ranges into disjoint, load-balanced
//     sub-ranges before the (unicast) probe phase.
//
// OutOfCore is the non-expanding baseline: a fixed node set that joins
// out-of-core on local disk when memory fills.
//
// The algorithms execute as actors over interchangeable engines: a
// deterministic cluster simulator with a calibrated cost model (the default
// used by Run) and a TCP transport for real multi-process runs. Results
// are exact — real tuples flow through real hash tables — while the
// simulator's virtual clock reproduces the paper's cluster timing.
//
// Quick start:
//
//	report, err := ehjoin.Run(ehjoin.Config{
//	    Algorithm:    ehjoin.Hybrid,
//	    InitialNodes: 4,
//	    Build:        ehjoin.Spec{Dist: ehjoin.Uniform, Tuples: 1_000_000, Seed: 1},
//	    Probe:        ehjoin.Spec{Dist: ehjoin.Uniform, Tuples: 1_000_000, Seed: 2},
//	    MatchFraction: 1.0,
//	})
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record of every figure.
package ehjoin

import (
	"ehjoin/internal/core"
	"ehjoin/internal/datagen"
	"ehjoin/internal/hashfn"
	rt "ehjoin/internal/runtime"
	"ehjoin/internal/spill"
	"ehjoin/internal/tuple"
)

// Algorithm selects the join strategy.
type Algorithm = core.Algorithm

// The four strategies evaluated in the paper.
const (
	OutOfCore   = core.OutOfCore
	Split       = core.Split
	Replication = core.Replication
	Hybrid      = core.Hybrid
)

// Config describes one join execution. See core.Config for field
// documentation.
type Config = core.Config

// Report is the outcome of a run: the join-result fingerprint plus every
// measurement the paper's figures plot.
type Report = core.Report

// Spec describes one synthetic relation (cardinality, value distribution,
// tuple layout, seed).
type Spec = datagen.Spec

// Relation value distributions.
const (
	Uniform  = datagen.Uniform
	Gaussian = datagen.Gaussian
)

// Layout describes the logical tuple shape.
type Layout = tuple.Layout

// LayoutForTupleSize returns a layout with the given total logical tuple
// size in bytes (the paper evaluates 100, 200, and 400).
func LayoutForTupleSize(size int) Layout { return tuple.LayoutForTupleSize(size) }

// Space is the hash-table position space.
type Space = hashfn.Space

// CostModel parameterises the emulated cluster.
type CostModel = rt.CostModel

// OSUMed returns the cost model calibrated to the paper's 24-node PC
// cluster (Pentium III 933 MHz, 100 Mb/s switched Ethernet).
func OSUMed() CostModel { return rt.OSUMed() }

// Engine abstracts the execution substrate; see internal/sim and
// internal/tcpnet.
type Engine = rt.Engine

// OOCPolicy selects how the out-of-core baseline degrades when memory
// fills.
type OOCPolicy = spill.Policy

// Out-of-core degradation policies.
const (
	// Grace is the paper's basic out-of-core algorithm: the first
	// overflow sends the node fully out of core.
	Grace = spill.Grace
	// HybridHash keeps as many partitions resident as fit; a stronger
	// baseline used for ablation.
	HybridHash = spill.HybridHash
)

// Run executes the configured join on the cluster simulator.
func Run(cfg Config) (*Report, error) { return core.Run(cfg) }

// Execute runs the configured join on an arbitrary engine.
func Execute(cfg Config, eng Engine) (*Report, error) { return core.Execute(cfg, eng) }

// Algorithms lists every implemented strategy in presentation order.
func Algorithms() []Algorithm { return core.Algorithms() }

// MultiConfig describes a multi-way join pipeline (the paper's §6 future
// work): a left-deep chain R1 ⋈ R2 ⋈ ... ⋈ Rk of expanding hash joins
// whose intermediate results stay in memory and stream between stages.
type MultiConfig = core.MultiConfig

// StageRelation describes one relation of a multi-way join chain.
type StageRelation = core.StageRelation

// MultiReport is the outcome of a multi-way join run.
type MultiReport = core.MultiReport

// StageReport summarises one pipeline stage of a multi-way join.
type StageReport = core.StageReport

// RunMulti executes a multi-way join pipeline on the cluster simulator.
func RunMulti(mc MultiConfig) (*MultiReport, error) { return core.RunMulti(mc) }

// ExecuteMulti runs a multi-way join pipeline on an arbitrary engine.
func ExecuteMulti(mc MultiConfig, eng Engine) (*MultiReport, error) {
	return core.ExecuteMulti(mc, eng)
}

// Estimate is the outcome of sizing a join's initial node allocation by
// sampling (see EstimateInitialNodes).
type Estimate = core.Estimate

// EstimateInitialNodes samples a relation's generator to propose an initial
// join-node allocation — the paper's §4 future-work item on selecting the
// initial node set.
func EstimateInitialNodes(spec Spec, cfg Config, sampleTuples int64, headroom float64) (Estimate, error) {
	return core.EstimateInitialNodes(spec, cfg, sampleTuples, headroom)
}
