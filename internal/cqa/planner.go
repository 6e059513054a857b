package cqa

import (
	"math"

	"cdb/internal/exec"
)

// This file is the planner's entry point and the filter stage's cost
// model. The logical phase (Optimize + the cost-driven rewrite in
// optimize_cost.go) reshapes the algebra tree before it runs; *how* each
// binary node's filter stage enumerates its candidate pairs is decided
// once, at execution time, by resolveStrategy below — the only place the
// actual input relations (base or intermediate) are in hand. How a
// candidate pair is then decided is not a plan at all: the refine stage
// picks per pair (pairing.go). docs/ARCHITECTURE.md "The filter stage"
// describes both.
//
// Cost model. Unit = one interval comparison; k = the frame's columns,
// the shared constraint attributes (each enumerated pair pays the
// k-column frame check, pairing.go, whichever enumeration ran):
//
//	dense  = relPairs·k                    every bucket-matched pair checked
//	sweep  = (n+m)·log₂(n+m) + estSweep·k  sort both sides, check overlaps in the sweep column
//
// Ties prefer the simpler enumeration (dense).

// sweepCrossover is the pair count (whole input, and per bucket under
// auto) below which enumeration is always the dense loop: sorting two
// tiny sides costs more than scanning them.
const sweepCrossover = 64

// resolveStrategy is the filter stage's single decision point: how
// candidate pairs are enumerated, exec.PlanDense or exec.PlanSweep. A
// forced dense or sweep mode pins it; forcing sweep with no sweepable
// attribute degrades to dense — the degenerate sweep is the dense loop
// anyway, and the stats then say so instead of flattering the forced mode.
// Wherever the mode does not pin the enumeration (auto, and vector, which
// forces a decider and not an enumeration), the cost model does.
func resolveStrategy(mode string, s pairStats) string {
	switch {
	case mode == exec.PlanDense || s.sweepCol < 0:
		return exec.PlanDense
	case mode == exec.PlanSweep:
		return exec.PlanSweep
	}
	n, m := len(s.t1s), len(s.t2s)
	if int64(n)*int64(m) < sweepCrossover {
		return exec.PlanDense
	}
	k := math.Max(1, float64(len(s.fr.cols)))
	costDense := float64(s.relPairs) * k
	estSweep := min(s.relPairs, s.overlap[s.sweepCol]) // overlaps in the sweep column, capped by the buckets
	costSweep := float64(n+m)*math.Log2(float64(n+m)+1) + float64(estSweep)*k
	if costSweep < costDense {
		return exec.PlanSweep
	}
	return exec.PlanDense
}

// Plan is the planner the query front ends run when optimisation is on
// and an environment of real relations is in hand: the logical fixpoint
// rules (Optimize), then the cost-driven join reordering
// (optimize_cost.go).
// Optimize alone remains the schema-only entry point.
func Plan(n Node, env Env) Node {
	return optimizeCost(Optimize(n, env.Schemas()), env)
}
