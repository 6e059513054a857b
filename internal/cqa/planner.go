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
// Cost model. Unit = one envelope-interval comparison; k = number of
// shared constraint attributes (each surviving pair pays a k-interval
// Disjoint check whichever enumeration ran):
//
//	dense  = relPairs·k                    every bucket-matched pair checked
//	sweep  = (n+m)·log₂(n+m) + estSweep·k  sort both sides, check overlaps on the sweep attr
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
	case mode == exec.PlanDense || s.sweepAttr == "":
		return exec.PlanDense
	case mode == exec.PlanSweep:
		return exec.PlanSweep
	case int64(s.n)*int64(s.m) < sweepCrossover:
		return exec.PlanDense
	}
	k := math.Max(1, float64(len(s.overlap)))
	costDense := float64(s.relPairs) * k
	costSweep := float64(s.n+s.m)*math.Log2(float64(s.n+s.m)+1) + float64(s.estSweep())*k
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
