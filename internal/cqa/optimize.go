package cqa

import "cdb/internal/schema"

// Optimize rewrites a CQA plan into an equivalent, usually cheaper one.
// This is the operator-reordering role the paper assigns to the algebra as
// the "middle layer" of a constraint database system (§1.1, Figure 1).
//
// Rules applied to fixpoint:
//
//  1. merge adjacent selections:            ς_a(ς_b(R)) → ς_{a∧b}(R)
//  2. push selections below joins:          ς_a(R ⋈ S)  → ς_a(R) ⋈ S
//     when every attribute of a is in α(R) (symmetrically for S);
//  3. push selections below unions:         ς_a(R ∪ S)  → ς_a(R) ∪ ς_a(S)
//  4. push selections below difference:     ς_a(R − S)  → ς_a(R) − S
//     (sound because difference filters by the left side's points);
//  5. collapse nested projections:          π_X(π_Y(R)) → π_X(R), X ⊆ Y
//  6. drop identity projections:            π_{α(R)}(R) → R (same order)
//  7. push projections below joins:
//     π_X(R ⋈ S) → π_X(π_{X∩α(R) ∪ J}(R) ⋈ π_{X∩α(S) ∪ J}(S)) with J the
//     shared attributes — constraint attributes are eliminated as early
//     as possible, which shrinks the Fourier-Motzkin work downstream.
//     Applied only when it actually narrows a side, to guarantee
//     termination.
//
// The environment's schemas are needed to decide rule 2; nodes whose
// schemas cannot be resolved are left untouched.
func Optimize(n Node, env SchemaEnv) Node {
	for {
		rewritten, changed := rewrite(n, env)
		n = rewritten
		if !changed {
			return n
		}
	}
}

func rewrite(n Node, env SchemaEnv) (Node, bool) {
	switch node := n.(type) {
	case *ScanNode:
		return node, false

	case *SelectNode:
		in, changed := rewrite(node.Input, env)
		node = NewSelect(in, node.Cond)
		switch child := in.(type) {
		case *SelectNode: // rule 1
			merged := append(append(Condition{}, child.Cond...), node.Cond...)
			return NewSelect(child.Input, merged), true
		case *JoinNode: // rule 2
			ls, lerr := child.Left.OutSchema(env)
			rs, rerr := child.Right.OutSchema(env)
			if lerr == nil && rerr == nil {
				var toLeft, toRight, stay Condition
				for _, a := range node.Cond {
					switch {
					case attrsWithin(a, ls):
						toLeft = append(toLeft, a)
					case attrsWithin(a, rs):
						toRight = append(toRight, a)
					default:
						stay = append(stay, a)
					}
				}
				if len(toLeft) > 0 || len(toRight) > 0 {
					l, r := child.Left, child.Right
					if len(toLeft) > 0 {
						l = NewSelect(l, toLeft)
					}
					if len(toRight) > 0 {
						r = NewSelect(r, toRight)
					}
					var out Node = NewJoin(l, r)
					if len(stay) > 0 {
						out = NewSelect(out, stay)
					}
					return out, true
				}
			}
		case *UnionNode: // rule 3
			return NewUnion(NewSelect(child.Left, node.Cond), NewSelect(child.Right, node.Cond)), true
		case *DiffNode: // rule 4
			return NewDiff(NewSelect(child.Left, node.Cond), child.Right), true
		}
		return node, changed

	case *ProjectNode:
		in, changed := rewrite(node.Input, env)
		node = NewProject(in, node.Cols...)
		if child, ok := in.(*ProjectNode); ok { // rule 5
			return NewProject(child.Input, node.Cols...), true
		}
		if s, err := in.OutSchema(env); err == nil { // rule 6
			names := s.Names()
			if len(names) == len(node.Cols) {
				same := true
				for i := range names {
					if names[i] != node.Cols[i] {
						same = false
						break
					}
				}
				if same {
					return in, true
				}
			}
		}
		if child, ok := in.(*JoinNode); ok { // rule 7
			if out, ok := pushProjectThroughJoin(node, child, env); ok {
				return out, true
			}
		}
		return node, changed

	case *JoinNode:
		l, lc := rewrite(node.Left, env)
		r, rc := rewrite(node.Right, env)
		return NewJoin(l, r), lc || rc

	case *UnionNode:
		l, lc := rewrite(node.Left, env)
		r, rc := rewrite(node.Right, env)
		return NewUnion(l, r), lc || rc

	case *DiffNode:
		l, lc := rewrite(node.Left, env)
		r, rc := rewrite(node.Right, env)
		return NewDiff(l, r), lc || rc

	case *RenameNode:
		in, c := rewrite(node.Input, env)
		return NewRename(in, node.Map), c

	default:
		return n, false
	}
}

// pushProjectThroughJoin applies rule 7. It keeps, on each side, the
// projected columns present on that side plus all shared (join)
// attributes, preserving each side's attribute order. The rewrite fires
// only when at least one side actually loses a column (otherwise it could
// loop) and when no projected column disappears (every projected column
// is on some side).
func pushProjectThroughJoin(p *ProjectNode, j *JoinNode, env SchemaEnv) (Node, bool) {
	ls, lerr := j.Left.OutSchema(env)
	rs, rerr := j.Right.OutSchema(env)
	if lerr != nil || rerr != nil {
		return nil, false
	}
	want := map[string]bool{}
	for _, c := range p.Cols {
		if !ls.Has(c) && !rs.Has(c) {
			return nil, false // ill-typed; leave for evaluation to report
		}
		want[c] = true
	}
	shared := map[string]bool{}
	for _, n := range ls.Names() {
		if rs.Has(n) {
			shared[n] = true
		}
	}
	side := func(s schema.Schema) ([]string, bool) {
		var cols []string
		narrowed := false
		for _, n := range s.Names() {
			if want[n] || shared[n] {
				cols = append(cols, n)
			} else {
				narrowed = true
			}
		}
		return cols, narrowed
	}
	lCols, lNarrow := side(ls)
	rCols, rNarrow := side(rs)
	if !lNarrow && !rNarrow {
		return nil, false
	}
	if len(lCols) == 0 || len(rCols) == 0 {
		// A side would project to nothing (no shared attrs and no wanted
		// columns there); zero-arity relations are not representable, so
		// leave the plan alone.
		return nil, false
	}
	l, r := j.Left, j.Right
	if lNarrow {
		l = NewProject(l, lCols...)
	}
	if rNarrow {
		r = NewProject(r, rCols...)
	}
	return NewProject(NewJoin(l, r), p.Cols...), true
}

func attrsWithin(a Atom, s schema.Schema) bool {
	for _, name := range a.attrs() {
		if !s.Has(name) {
			return false
		}
	}
	return true
}
