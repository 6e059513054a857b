package cqa

import (
	"math"

	"cdb/internal/exec"
)

// This file is the planner's entry point and the filter stage's
// enumeration rule. The logical phase (Optimize + the cost-driven rewrite
// in optimize_cost.go) reshapes the algebra tree before it runs; *how*
// each bucket of a binary node's filter stage enumerates its candidate
// pairs is decided at execution time, by sweepBucket below — the only
// place the actual input relations (base or intermediate) are in hand.
// How a candidate pair is then decided is not a plan at all: the refine
// stage picks per pair (pairing.go). docs/ARCHITECTURE.md "The filter
// stage" describes both.
//
// The rule is one size test per bucket of n left and m right tuples: the
// interval sweep runs iff
//
//	n·m ≥ sweepC·(n+m)·log₂(n+m)
//
// — sorting both sides then costs at most about 1/sweepC of the dense
// loop's pair checks, which bounds what the sweep loses where it skips
// nothing (every pair overlapping in the sweep column) to that sort and
// the ordering of its candidates. The rule reads only sizes: no estimate
// of how many pairs overlap, whose exact per-column counts cost as much
// to compute as the dense loop itself.

// sweepC is the enumeration rule's constant, chosen on
// BenchmarkPairCandidates (its doc comment has the table): the benchmark
// workloads' pairings — Query 3's track join, box-join's one-cluster
// boxes, polygon-minus's convex and concave pairs — stay dense, where the
// sweep has almost nothing to skip, and sparse boxes from 64 a side sweep.
const sweepC = 3.5

// sweepBucket is the filter stage's single decision point: whether the
// bucket pairing n left with m right tuples is enumerated by the interval
// sweep (else the dense loop). A forced dense or sweep mode pins it; with
// no sweepable column (sweepCol < 0) there is no sweep to run — the
// degenerate sweep is the dense loop anyway. Wherever the mode does not
// pin the enumeration (auto, and vector, which forces a decider and not
// an enumeration), the size rule does.
func sweepBucket(mode string, sweepCol, n, m int) bool {
	switch {
	case mode == exec.PlanDense || sweepCol < 0:
		return false
	case mode == exec.PlanSweep:
		return true
	}
	size := float64(n + m)
	return float64(n)*float64(m) >= sweepC*size*math.Log2(size)
}

// Plan is the planner the query front ends run when optimisation is on
// and an environment of real relations is in hand: the logical fixpoint
// rules (Optimize), then the cost-driven join reordering
// (optimize_cost.go).
// Optimize alone remains the schema-only entry point.
func Plan(n Node, env Env) Node {
	return optimizeCost(Optimize(n, env.Schemas()), env)
}
