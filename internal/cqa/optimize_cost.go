package cqa

import (
	"sort"

	"cdb/internal/constraint"
	"cdb/internal/relation"
	"cdb/internal/schema"
)

// This file holds the cost-driven logical rewrites of the two-phase
// planner — the ones Optimize's purely syntactic fixpoint rules cannot
// make, because they need the estimator's numbers over actual relations:
//
//   - selection-atom ordering: the atoms of a selection over a base
//     relation are reordered most-selective-first, so the per-tuple
//     early-exit in SelectCtx rejects tuples after the fewest conjoin +
//     satisfiability rounds. Selectivity comes from the envelope
//     estimator: for a single-variable linear atom, the fraction of
//     input envelopes whose interval intersects the atom's
//     (constraint.AtomInterval + CountIntersecting); atoms the estimator
//     cannot score keep selectivity 1 and their original relative order.
//   - join reordering: a join-only subtree over base relations is
//     rebuilt left-deep starting from the pair with the smallest
//     estimated surviving-candidate count, growing greedily by the leaf
//     cheapest against the chosen set. Applied only on a ≥2× estimated
//     improvement over the original first join, and wrapped in a
//     projection restoring the original output attribute order, so a
//     plan that was already fine is left alone.
//
// Both rewrites preserve the point-set semantics exactly (conjunction
// and natural join are commutative/associative; the projection restores
// the schema); they may permute the storage order of output tuples,
// which the sorted renderers make invisible.

// optimizeCost applies the cost-driven rewrites to a plan. Rewrites fire
// only where the needed statistics are exact — inputs that are base
// relations in env — so the pass is cheap and never guesses.
func optimizeCost(n Node, env Env) Node {
	switch node := n.(type) {
	case *SelectNode:
		in := optimizeCost(node.Input, env)
		return NewSelect(in, orderAtoms(node.Cond, in, env))
	case *ProjectNode:
		return NewProject(optimizeCost(node.Input, env), node.Cols...)
	case *RenameNode:
		return NewRename(optimizeCost(node.Input, env), node.Map)
	case *UnionNode:
		return NewUnion(optimizeCost(node.Left, env), optimizeCost(node.Right, env))
	case *DiffNode:
		return NewDiff(optimizeCost(node.Left, env), optimizeCost(node.Right, env))
	case *JoinNode:
		if out, ok := reorderJoinChain(node, env); ok {
			return out
		}
		return NewJoin(optimizeCost(node.Left, env), optimizeCost(node.Right, env))
	default:
		return n
	}
}

// atomSelectivity estimates the fraction of scan tuples a single atom
// keeps, using the same envelope intervals the pairing estimator counts
// with. Only single-variable linear atoms over a constraint attribute are
// scorable (their conjoined constraint has a known interval); everything
// else — string atoms, multi-variable expressions, relational attributes,
// the tuple-splitting != — reports 1 (no information).
func atomSelectivity(a Atom, s schema.Schema, envs []constraint.Envelope) float64 {
	la, ok := a.(LinearAtom)
	if !ok || len(envs) == 0 {
		return 1
	}
	vars := la.Expr.Vars()
	if len(vars) != 1 {
		return 1
	}
	if attr, ok := s.Attr(vars[0]); !ok || attr.Kind != schema.Constraint {
		return 1
	}
	var con constraint.Constraint
	switch la.Op {
	case OpEq:
		con = constraint.Constraint{Expr: la.Expr, Op: constraint.Eq}
	case OpLe:
		con = constraint.Constraint{Expr: la.Expr, Op: constraint.Le}
	case OpLt:
		con = constraint.Constraint{Expr: la.Expr, Op: constraint.Lt}
	case OpGe:
		con = constraint.Constraint{Expr: la.Expr.Neg(), Op: constraint.Le}
	case OpGt:
		con = constraint.Constraint{Expr: la.Expr.Neg(), Op: constraint.Lt}
	default: // != keeps both half-spaces; no single interval describes it
		return 1
	}
	v, iv, ok := constraint.AtomInterval(con)
	if !ok {
		return 1
	}
	return float64(constraint.CountIntersecting(envs, v, iv)) / float64(len(envs))
}

// orderAtoms returns cond reordered most-selective-first when the
// selection reads a base relation; the sort is stable, so unscorable
// atoms (selectivity 1) keep their original relative order and a
// condition with no scorable atom comes back unchanged.
func orderAtoms(cond Condition, in Node, env Env) Condition {
	if len(cond) < 2 {
		return cond
	}
	scan, ok := in.(*ScanNode)
	if !ok {
		return cond
	}
	r, ok := env[scan.Name]
	if !ok {
		return cond
	}
	envs := envelopes(r.Tuples())
	sel := make([]float64, len(cond))
	anyInfo := false
	for i, a := range cond {
		sel[i] = atomSelectivity(a, r.Schema(), envs)
		if sel[i] < 1 {
			anyInfo = true
		}
	}
	if !anyInfo {
		return cond
	}
	idx := make([]int, len(cond))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(x, y int) bool { return sel[idx[x]] < sel[idx[y]] })
	out := make(Condition, len(cond))
	for i, j := range idx {
		out[i] = cond[j]
	}
	return out
}

// joinLeaves flattens a join-only subtree into its leaves, in evaluation
// order. ok is false when any non-join interior node or non-scan leaf
// appears — the chain rewrite only reasons about base relations.
func joinLeaves(n Node, env Env) ([]*ScanNode, bool) {
	switch node := n.(type) {
	case *JoinNode:
		l, ok := joinLeaves(node.Left, env)
		if !ok {
			return nil, false
		}
		r, ok := joinLeaves(node.Right, env)
		if !ok {
			return nil, false
		}
		return append(l, r...), true
	case *ScanNode:
		if _, ok := env[node.Name]; !ok {
			return nil, false
		}
		return []*ScanNode{node}, true
	default:
		return nil, false
	}
}

// reorderJoinChain rebuilds a ≥3-leaf join-only subtree left-deep in a
// cost-chosen order: the cheapest pair (smallest estimated surviving
// candidates) joins first, then the remaining leaves greedily by their
// cheapest estimate against any already-joined leaf — the estimator's
// pairwise numbers are exact, the greedy extension is the usual proxy
// for the unobservable intermediate sizes. The rewrite fires only when
// the chosen first pair is at least 2× cheaper than the join the
// original plan would run first, and the result is wrapped in a
// projection onto the original output names so the schema (and with it
// every downstream column reference) is unchanged.
func reorderJoinChain(n *JoinNode, env Env) (Node, bool) {
	leaves, ok := joinLeaves(n, env)
	if !ok || len(leaves) < 3 || len(leaves) > 6 {
		return nil, false
	}
	origSchema, err := n.OutSchema(env.Schemas())
	if err != nil {
		return nil, false
	}
	rels := make([]*relation.Relation, len(leaves))
	for i, l := range leaves {
		rels[i] = env[l.Name]
	}
	est := func(i, j int) int64 { return estimatePairs(rels[i], rels[j]) }
	// The original plan's first-evaluated join is its deepest-left node,
	// i.e. the first two leaves in evaluation order.
	origFirst := est(0, 1)
	bi, bj, best := 0, 1, origFirst
	for i := 0; i < len(leaves); i++ {
		for j := i + 1; j < len(leaves); j++ {
			if e := est(i, j); e < best {
				bi, bj, best = i, j, e
			}
		}
	}
	// Strict improvement required: at origFirst = 0 the ≥2× test alone
	// would pass on a tie (0·2 > 0 is false) and churn an optimal plan.
	if best >= origFirst || best*2 > origFirst {
		return nil, false
	}
	chosen := []int{bi, bj}
	used := map[int]bool{bi: true, bj: true}
	for len(chosen) < len(leaves) {
		nk, nc := -1, int64(0)
		for k := range leaves {
			if used[k] {
				continue
			}
			c := int64(-1)
			for _, x := range chosen {
				if e := est(x, k); c < 0 || e < c {
					c = e
				}
			}
			if nk < 0 || c < nc {
				nk, nc = k, c
			}
		}
		chosen = append(chosen, nk)
		used[nk] = true
	}
	var out Node = Scan(leaves[chosen[0]].Name)
	for _, k := range chosen[1:] {
		out = NewJoin(out, Scan(leaves[k].Name))
	}
	return NewProject(out, origSchema.Names()...), true
}
