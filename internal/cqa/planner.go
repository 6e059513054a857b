package cqa

import (
	"math"

	"cdb/internal/exec"
)

// This file is the planner's entry point and the filter stage's cost
// model. The logical phase (Optimize + the cost-driven rewrites in
// optimize_cost.go) reshapes the algebra tree before it runs; *how* each
// binary node's filter stage pairs its inputs is decided once, at
// execution time, by resolveStrategy below — the only place the actual
// input relations (base or intermediate) are in hand. docs/ARCHITECTURE.md
// "The filter stage" describes the two axes and why there are no more.
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

// resolveStrategy is the filter stage's single decision point. It picks,
// independently, how candidate pairs are enumerated (exec.PlanDense or
// exec.PlanSweep) and whether the refine stage decides eligible pairs by
// exact polygon clipping (vector) instead of Fourier–Motzkin:
//
//   - a forced dense or sweep mode pins the enumeration and leaves the
//     decision to FM; forcing sweep with no sweepable attribute degrades
//     to dense — the degenerate sweep is the dense loop anyway, and the
//     stats then say so instead of flattering the forced mode;
//   - a forced vector mode sets the flag whenever either side has an
//     eligible tuple (the difference staircase profits from the
//     minuend's form alone); with nothing eligible every pair would fall
//     back to FM, so the flag — and the label — stay off;
//   - auto sets the flag when at least half the candidate pairs are
//     expected to be decidable in vector form (the FM savings dominate
//     whatever the enumeration does), except on inputs below
//     sweepCrossover, which always run plain dense.
//
// Wherever the mode does not pin the enumeration, the cost model does.
func resolveStrategy(mode string, s pairStats) (enum string, vector bool) {
	small := int64(s.n)*int64(s.m) < sweepCrossover
	switch mode {
	case exec.PlanDense, exec.PlanSweep:
		// FM decides.
	case exec.PlanVector:
		vector = s.elig1 > 0 || s.elig2 > 0
	default:
		vector = !small && s.vectorFrac() >= 0.5
	}
	switch {
	case mode == exec.PlanDense || s.sweepAttr == "":
		return exec.PlanDense, vector
	case mode == exec.PlanSweep:
		return exec.PlanSweep, vector
	case small:
		return exec.PlanDense, vector
	}
	k := math.Max(1, float64(len(s.overlap)))
	costDense := float64(s.relPairs) * k
	costSweep := float64(s.n+s.m)*math.Log2(float64(s.n+s.m)+1) + float64(s.estSweep())*k
	if costSweep < costDense {
		return exec.PlanSweep, vector
	}
	return exec.PlanDense, vector
}

// Plan is the planner the query front ends run when optimisation is on
// and an environment of real relations is in hand: the logical fixpoint
// rules (Optimize), then the cost-driven logical rewrites (join
// reordering and selectivity-ordered selections, optimize_cost.go).
// Optimize alone remains the schema-only entry point.
func Plan(n Node, env Env) Node {
	return optimizeCost(Optimize(n, env.Schemas()), env)
}
