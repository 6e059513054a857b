package cqa

import "cdb/internal/relation"

// This file holds the planner's entry point (Plan) and the cost-driven
// logical rewrite of the two-phase planner — the one Optimize's purely syntactic fixpoint rules cannot
// make, because it needs the estimator's numbers over actual relations:
// join reordering. A join-only subtree over base relations is rebuilt
// left-deep starting from the pair with the smallest estimated
// surviving-candidate count, growing greedily by the leaf cheapest
// against the chosen set. It is applied only on a ≥2× estimated
// improvement over the original first join, and wrapped in a projection
// restoring the original output attribute order, so a plan that was
// already fine is left alone. The rewrite preserves the point-set
// semantics exactly (natural join is commutative and associative; the
// projection restores the schema); it may permute the storage order of
// output tuples, which the sorted renderers make invisible.

// Plan is the planner the query front ends run when optimisation is on
// and an environment of real relations is in hand: the logical fixpoint
// rules (Optimize), then the cost-driven join reordering below. Optimize
// alone remains the schema-only entry point.
func Plan(n Node, env Env) Node {
	return optimizeCost(Optimize(n, env.Schemas()), env)
}

// optimizeCost applies the cost-driven rewrite to a plan. It fires only
// where the needed statistics are exact — inputs that are base relations
// in env — so the pass is cheap and never guesses.
func optimizeCost(n Node, env Env) Node {
	switch node := n.(type) {
	case *SelectNode:
		return NewSelect(optimizeCost(node.Input, env), node.Cond)
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
