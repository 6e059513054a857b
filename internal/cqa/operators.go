package cqa

import (
	"fmt"

	"cdb/internal/constraint"
	"cdb/internal/exec"
	"cdb/internal/relation"
	"cdb/internal/schema"
	"cdb/internal/vector"
)

// The operators come in pairs: Op(args) is the sequential convenience
// form and OpCtx(ec, args) the form that takes an execution context.
// OpCtx fans the per-tuple (Select, Project, Difference) or per-tuple-
// pair (Join, Intersect) satisfiability work out over ec's worker pool
// and records per-operator statistics on ec; results are merged in input
// index order, so the output is byte-identical to the sequential path.
// A nil context is valid and means sequential execution with no stats.
//
// Two cross-cutting invariants of every operator:
//
//   - canonical output: every emitted tuple has its constraint part in
//     canonical form (constraint.Conjunction.Canon), whatever the form of
//     the inputs;
//   - memoized decisions: every satisfiability decision goes through the
//     operator's recorder (exec.OpRecorder.Satisfiable, and for the pair
//     decisions of join, intersect, select and difference's pre-filter
//     exec.OpRecorder.SatisfiablePair), so a sat-cache configured on ec is
//     consulted and the hit/miss counts land in the per-operator
//     statistics. With no context or no cache the decisions fall back to
//     the raw Fourier-Motzkin eliminator, and the output is byte-identical
//     either way.
//
// Join and intersect ask before they build: a candidate pair is looked up
// under its two *input* fingerprints, a remembered unsatisfiable pair is
// dropped without a Merge, a remembered satisfiable one reuses the stored
// canonical merge (memoised envelope and vector form included), and only a
// pair the cache has not seen is merged, canonicalised and decided — on the
// canonical form, whose fold halves what the eliminator sees. One pair is
// one sat-check and one hit or miss. That lookup is the last of the per-pair
// deciders (pairing.go): pairs of boxes over the same constraint attributes and
// pairs of polygon forms are answered before it, on their intervals and by
// clipping, and never touch the cache — their working sets (box-join cycles
// 6400 distinct pairs through 4096 entries) would evict every entry before
// its reuse. Difference's intersection pre-filter decides its pairs the same
// way, clip then pair lookup; its staircase asks about prefixes, not pairs.

// Select returns ς_cond(r): the tuples of r restricted to the condition.
// Per the heterogeneous semantics, conditions over constraint attributes
// are conjoined (broad), while conditions over relational attributes filter
// by value with NULL matching nothing (narrow). Atoms using != over
// constraint attributes may split a tuple in two, so the output can have
// more tuples than the input (but never more points).
func Select(r *relation.Relation, cond Condition) (*relation.Relation, error) {
	return SelectCtx(nil, r, cond)
}

// SelectCtx is Select under an execution context. The condition is split
// once (selection, predicate.go): the value atoms filter the input in one
// sequential pass, and only the survivors fan out over ec's worker pool,
// each decided once against the condition's constraint atoms by the
// join's decider list.
func SelectCtx(ec *exec.Context, r *relation.Relation, cond Condition) (*relation.Relation, error) {
	if err := cond.Validate(r.Schema()); err != nil {
		return nil, err
	}
	rec := ec.StartOp("select", r.Len())
	sel := splitCondition(cond, r.Schema())
	tuples := r.Tuples()
	if len(sel.values) > 0 || len(sel.reads) > 0 {
		var kept []relation.Tuple
		for _, t := range tuples {
			if sel.keeps(t) {
				kept = append(kept, t)
			}
		}
		tuples = kept
	}
	dec := pairDeciders(ec, true)
	kept, err := exec.Map(ec, len(tuples), func(i int, out []relation.Tuple) ([]relation.Tuple, error) {
		return sel.refine(out, tuples[i], dec, rec), nil
	})
	if err != nil {
		return nil, err
	}
	// A selected tuple is an input tuple with atoms over the schema's own
	// constraint attributes conjoined: valid for it by construction.
	out := relation.FromValid(r.Schema(), kept)
	rec.AddOut(out.Len())
	rec.Done(ec.ParallelFor(len(tuples)))
	return out, nil
}

// Project returns π_X(r): the restriction of every tuple to the attributes
// X. Constraint attributes outside X are eliminated exactly (Fourier-
// Motzkin projection of the constraint part; a box just loses their
// bounds); relational bindings outside X are dropped. Tuples whose
// projected constraint part is unsatisfiable are removed.
func Project(r *relation.Relation, cols ...string) (*relation.Relation, error) {
	return ProjectCtx(nil, r, cols...)
}

// ProjectCtx is Project under an execution context: the per-tuple
// Fourier-Motzkin eliminations fan out over ec's worker pool.
//
// A projection onto no constraint attribute is a sentence — "does some
// point satisfy this tuple?" — so a tuple that is not a box is decided, not
// eliminated: one recorder decision on its own constraint part (a sat-cache
// hit once the tuple has been seen), and True when it holds. That is what
// eliminating every variable and deciding the residue answers, without the
// elimination. A box needs neither: it drops its bounds and asks nothing.
func ProjectCtx(ec *exec.Context, r *relation.Relation, cols ...string) (*relation.Relation, error) {
	ps, err := r.Schema().Project(cols...)
	if err != nil {
		return nil, err
	}
	dropCon := make([]string, 0, len(r.Schema().Attrs()))
	sentence := true // ps has no constraint attribute
	for _, a := range r.Schema().Attrs() {
		switch {
		case a.Kind != schema.Constraint:
		case ps.Has(a.Name):
			sentence = false
		default:
			dropCon = append(dropCon, a.Name)
		}
	}
	rec := ec.StartOp("project", r.Len())
	tuples := r.Tuples()
	kept, err := exec.Map(ec, len(tuples), func(i int, out []relation.Tuple) ([]relation.Tuple, error) {
		t := tuples[i]
		var con constraint.Conjunction
		switch {
		case t.Constraint().IsBox():
			// A non-empty box projects to a non-empty box: nothing to ask.
			con = t.Constraint().Eliminate(dropCon...)
		case sentence:
			if !rec.Satisfiable(t.Constraint()) {
				return out, nil
			}
			con = constraint.True()
		default:
			con = t.Constraint().Eliminate(dropCon...).Canon()
			if !rec.Satisfiable(con) {
				return out, nil
			}
		}
		var prev relation.Tuple
		if len(out) > 0 {
			prev = out[len(out)-1]
		}
		return append(out, t.Project(ps, con, prev)), nil
	})
	if err != nil {
		return nil, err
	}
	// A projected tuple keeps some of a valid tuple's bindings and constrains
	// only kept variables: valid for ps by construction.
	out := relation.FromValid(ps, kept)
	rec.AddOut(out.Len())
	rec.Done(ec.ParallelFor(len(tuples)))
	return out, nil
}

// Join returns r1 ⋈ r2, the natural join. Shared attributes must agree in
// type and kind:
//
//   - shared relational attributes join when their bindings are identical,
//     where an unbound attribute is NULL and NULL is identical to NULL
//     (the paper's narrow semantics reads a missing attribute as "a null
//     value, distinct from all values in the domain" — a distinguished
//     quasi-value, so two NULLs denote the same point coordinate; note
//     this is set-semantics identity, not SQL's three-valued NULL = NULL);
//   - shared constraint attributes join by conjoining the two constraint
//     parts over the shared variables (the broad semantics make an
//     unconstrained attribute join everything);
//   - the result keeps only pairs whose combined constraint part is
//     satisfiable.
//
// Cross-product and intersection are the special cases with disjoint and
// identical schemas respectively (paper §2.4, remark under Natural-Join).
func Join(r1, r2 *relation.Relation) (*relation.Relation, error) {
	return JoinCtx(nil, r1, r2)
}

// JoinCtx is Join under an execution context: the tuple-pair merge and
// satisfiability checks fan out over ec's worker pool, indexed by the
// flattened (t1, t2) pair so output order matches the sequential
// nested-loop order exactly.
func JoinCtx(ec *exec.Context, r1, r2 *relation.Relation) (*relation.Relation, error) {
	return joinCtx(ec, "join", r1, r2)
}

// joinCtx is the shared engine of Join and Intersect. The filter stage
// (pairCandidates) decides the pairing strategy, and the operator records
// it plus the estimator's pair bound on its stats, which EXPLAIN ANALYZE
// renders as strategy= / est_pairs= / act_pairs=.
func joinCtx(ec *exec.Context, op string, r1, r2 *relation.Relation) (*relation.Relation, error) {
	js, err := r1.Schema().Join(r2.Schema())
	if err != nil {
		return nil, err
	}
	sharedRel, sharedCon := sharedAttrs(r1.Schema(), r2.Schema())
	t1s, t2s := r1.Tuples(), r2.Tuples()
	rec := ec.StartOp(op, len(t1s)+len(t2s))
	pairs := 0
	if len(t2s) > 0 {
		pairs = len(t1s) * len(t2s)
	}
	// refine is the expensive per-pair step, run only on pairs whose
	// relational parts are known to match: the first decider of dec that
	// takes the pair answers it (deciders.decide), the last one by asking
	// before it builds (see the invariants at the top of this file). The
	// relational part is joined after the satisfiability reject, and
	// JoinTuple reuses a side's binding map whenever it can.
	var dec deciders
	refine := func(out []relation.Tuple, t1, t2 relation.Tuple) []relation.Tuple {
		con, sat := dec.decide(rec, t1.Constraint(), t2.Constraint())
		if !sat {
			return out
		}
		return append(out, relation.JoinTuple(t1, t2, con))
	}
	var joined []relation.Tuple
	items := pairs
	if ec.PruneEnabled() && pairs > 0 {
		// Filter stage: partition on sharedRel, frame-reject over
		// sharedCon, switched enumeration per bucket. The surviving
		// candidates are in ascending flattened order, so mapping over
		// them preserves the sequential nested-loop output order; the
		// filter's inputs have canonical constraint parts, which the pair
		// lookup keys on.
		plan := pairCandidates(ec, t1s, t2s, sharedRel, sharedCon)
		dec = pairDeciders(ec, len(sharedCon) == len(r1.Schema().ConstraintNames()) &&
			len(sharedCon) == len(r2.Schema().ConstraintNames()))
		rec.Pairing(plan.enum, plan.estPairs)
		rec.Pairs(int64(plan.total), int64(plan.pruned()))
		items = len(plan.cands)
		joined, err = exec.Map(ec, items, func(k int, out []relation.Tuple) ([]relation.Tuple, error) {
			idx := plan.cands[k]
			return refine(out, plan.t1s[idx/len(t2s)], plan.t2s[idx%len(t2s)]), nil
		})
	} else {
		// The reference path: no envelope compared, dec stays empty.
		rec.Pairs(int64(pairs), 0)
		joined, err = exec.Map(ec, pairs, func(i int, out []relation.Tuple) ([]relation.Tuple, error) {
			t1, t2 := t1s[i/len(t2s)], t2s[i%len(t2s)]
			for _, name := range sharedRel {
				v1, _ := t1.RVal(name) // NULL when unbound
				v2, _ := t2.RVal(name)
				if !v1.Identical(v2) {
					return out, nil
				}
			}
			return refine(out, t1, t2), nil
		})
	}
	if err != nil {
		return nil, err
	}
	// Every result joins two valid tuples into a tuple valid for js, the
	// schema join checked above (relation.FromValid).
	out := relation.FromValid(js, joined)
	rec.AddOut(out.Len())
	rec.Done(ec.ParallelFor(items))
	return out, nil
}

// Intersect returns r1 ∩ r2. It requires equal schemas and is implemented
// as the natural join (of which it is the special case).
func Intersect(r1, r2 *relation.Relation) (*relation.Relation, error) {
	return IntersectCtx(nil, r1, r2)
}

// IntersectCtx is Intersect under an execution context (see JoinCtx).
func IntersectCtx(ec *exec.Context, r1, r2 *relation.Relation) (*relation.Relation, error) {
	if !r1.Schema().Equal(r2.Schema()) {
		return nil, fmt.Errorf("cqa: intersect requires equal schemas: %s vs %s", r1.Schema(), r2.Schema())
	}
	return joinCtx(ec, "intersect", r1, r2)
}

// Union returns r1 ∪ r2. The schemas must be equal (as attribute sets with
// matching types and kinds).
func Union(r1, r2 *relation.Relation) (*relation.Relation, error) {
	return UnionCtx(nil, r1, r2)
}

// UnionCtx is Union under an execution context: the per-tuple
// normalisation work (simplification into canonical form, which also
// decides satisfiability) fans out over ec's worker pool; the dedup pass that
// follows is relation.Distinct, sequential in input order as in
// relation.NormalizeWith, so the output is byte-identical to the
// sequential path.
func UnionCtx(ec *exec.Context, r1, r2 *relation.Relation) (*relation.Relation, error) {
	if !r1.Schema().Equal(r2.Schema()) {
		return nil, fmt.Errorf("cqa: union requires equal schemas: %s vs %s", r1.Schema(), r2.Schema())
	}
	all := make([]relation.Tuple, 0, r1.Len()+r2.Len())
	all = append(all, r1.Tuples()...)
	all = append(all, r2.Tuples()...)
	rec := ec.StartOp("union", len(all))
	kept, err := exec.Map(ec, len(all), func(i int, out []relation.Tuple) ([]relation.Tuple, error) {
		t := all[i]
		con := t.Constraint().SimplifyWith(rec.SatFunc())
		if con.IsFalse() { // unsatisfiable: decided once, inside SimplifyWith
			return out, nil
		}
		return append(out, t.WithConstraint(con.Canon())), nil
	})
	if err != nil {
		return nil, err
	}
	// Both inputs are valid for the one schema, and simplifying a constraint
	// part adds no variable.
	out := relation.FromValid(r1.Schema(), relation.Distinct(kept))
	rec.AddOut(out.Len())
	rec.Done(ec.ParallelFor(len(all)))
	return out, nil
}

// Rename returns ϱ_{new|old}(r): attribute old renamed to new in the
// schema, the relational bindings, and the constraint variables.
func Rename(r *relation.Relation, old, new string) (*relation.Relation, error) {
	return RenameCtx(nil, r, map[string]string{old: new})
}

// RenameCtx is Rename under an execution context, for one simultaneous
// mapping old → new ({x: y, y: x} permutes without a temporary). A
// constraint part the mapping does not name comes back untouched, memos
// attached, so the pair cache still knows it. Sequential; stats only.
func RenameCtx(ec *exec.Context, r *relation.Relation, m map[string]string) (*relation.Relation, error) {
	rec := ec.StartOp("rename", r.Len())
	out, err := r.Rename(m)
	if err == nil {
		rec.AddOut(out.Len())
	}
	rec.Done(false)
	return out, err
}

// Difference returns r1 - r2: the points of r1 not in r2. The schemas must
// be equal.
//
// Tuples of r2 subtract from a tuple of r1 only when their relational parts
// are identical (NULL-safe identity, matching set difference in SQL);
// within such a match the constraint parts are subtracted exactly,
// producing a disjunction of constraint tuples (the closure principle at
// work: the complement of a conjunction of linear constraints expands into
// finitely many linear constraint tuples).
func Difference(r1, r2 *relation.Relation) (*relation.Relation, error) {
	return DifferenceCtx(nil, r1, r2)
}

// DifferenceCtx is Difference under an execution context: the per-tuple
// complement expansions (the heaviest CQA work) fan out over ec's worker
// pool.
//
// The subtrahends for each tuple of r1 come from the same filter stage as
// join's candidates (pairCandidates): the surviving list is {identical
// relational part ∧ envelopes not Disjoint}, in input order. The
// survivors then pass an exact intersection pre-filter, each pair decided
// as join decides one: the clip decider (clipPair), else the pair lookup
// on the filter's canonical inputs — subtracting a region that does not
// intersect t1 cannot change the semantics, but it would fragment the
// staircase expansion syntactically.
// The pre-filter runs in every mode, which is what keeps the output
// byte-identical with the filter on or off and across strategies: every
// envelope-pruned subtrahend is one the pre-filter's satisfiability
// decision rejects anyway.
//
// Each piece is emitted as the planar redundancy rule of SimplifyWith
// leaves it (constraint.Conjunction.SimplifyPlanar) and flagged
// irredundant, so normalising the output proves nothing again on
// two-variable pieces; a piece the rule does not decide is emitted as the
// staircase built it.
func DifferenceCtx(ec *exec.Context, r1, r2 *relation.Relation) (*relation.Relation, error) {
	if !r1.Schema().Equal(r2.Schema()) {
		return nil, fmt.Errorf("cqa: difference requires equal schemas: %s vs %s", r1.Schema(), r2.Schema())
	}
	t1s, t2s := r1.Tuples(), r2.Tuples()
	rec := ec.StartOp("difference", len(t1s)+len(t2s))
	m := len(t2s)
	filtered := ec.PruneEnabled() && len(t1s)*m > 0
	// The deciders read c1s, c2s: the filter's canonical inputs when it
	// runs. The staircase subtracts the inputs' own constraint parts.
	c1s, c2s := t1s, t2s
	var plan pairPlan
	var dec deciders
	if filtered {
		sharedRel, sharedCon := sharedAttrs(r1.Schema(), r2.Schema())
		plan = pairCandidates(ec, t1s, t2s, sharedRel, sharedCon)
		c1s, c2s = plan.t1s, plan.t2s
		dec = pairDeciders(ec, false) // env off: no workload subtracts boxes from boxes
		rec.Pairing(plan.enum, plan.estPairs)
		rec.Pairs(int64(plan.total), int64(plan.pruned()))
	} else {
		rec.Pairs(int64(len(t1s)*m), 0)
	}
	diff, err := exec.Map(ec, len(t1s), func(i int, out []relation.Tuple) ([]relation.Tuple, error) {
		t1, c1 := t1s[i], c1s[i].Constraint()
		// Candidate subtrahends, in input order either way, so the
		// staircase expansion sees the same subtrahend order: the filter's
		// row for t1, or — on the unfiltered reference path — every tuple
		// with an identical relational part.
		var matches []int
		if filtered {
			row := plan.row(i, m)
			matches = make([]int, 0, len(row))
			for _, idx := range row {
				matches = append(matches, idx%m)
			}
		} else {
			for j := range t2s {
				if t1.SameRelationalPart(t2s[j]) {
					matches = append(matches, j)
				}
			}
		}
		// Refine, part 1 — intersection pre-filter: keep only subtrahends
		// whose region actually meets t1's.
		var subtrahends []constraint.Conjunction
		for _, j := range matches {
			c2 := c2s[j].Constraint()
			sat, ok := false, false
			if dec.clip {
				sat, ok = clipPair(rec, c1, c2)
			}
			if !ok {
				_, sat = rec.SatisfiablePair(c1, c2)
			}
			if sat {
				subtrahends = append(subtrahends, t2s[j].Constraint())
			}
		}
		// Refine, part 2 — the staircase expansion, every returned piece
		// proven satisfiable, as a chain of atoms on t1's canonical
		// constraint part (constraint.Chain). With a polygon form for t1 each
		// piece carries t1's ring clipped by the atoms accumulated on top of
		// it, its edges labelled with the atoms that drew them, and a
		// subtrahend atom and its complement are decided together by one
		// split of that ring; an atom the split does not take is clipped
		// alone, and an atom the clipper cannot decide, or a t1 without a
		// form, goes to the recorder. The verdicts are FM's either way, so
		// the pieces are too.
		var f1 *vector.Form
		var root vector.Scope
		if dec.clip {
			if f1 = vector.FormOf(c1); f1 != nil {
				root = f1.LabelledScope()
			}
		}
		settle := func(prefix *constraint.Chain, atom constraint.Constraint, child vector.Scope, sat, ok bool) (vector.Scope, bool) {
			if ok {
				rec.VectorHit(sat, false)
				return child, sat
			}
			rec.VectorFallback()
			return child, rec.Satisfiable(prefix.Con().With(atom))
		}
		perAtom := constraint.AtomStep(func(parent vector.Scope, prefix *constraint.Chain, atom constraint.Constraint) (vector.Scope, bool) {
			if f1 == nil {
				return parent, rec.Satisfiable(prefix.Con().With(atom))
			}
			child, sat, ok := parent.Clip(atom)
			return settle(prefix, atom, child, sat, ok)
		})
		pieces := constraint.SubtractAllScoped(t1.Constraint(), subtrahends, root,
			func(parent vector.Scope, prefix *constraint.Chain, c constraint.Constraint, negs []constraint.Constraint) (neg [2]constraint.Verdict[vector.Scope], pos constraint.Verdict[vector.Scope]) {
				if f1 != nil {
					if in, out, split := parent.Split(c); split {
						neg[0].Scope, neg[0].Sat = settle(prefix, negs[0], out.Child, out.Sat, out.OK)
						pos.Scope, pos.Sat = settle(prefix, c, in.Child, in.Sat, in.OK)
						return neg, pos
					}
				}
				return perAtom(parent, prefix, c, negs)
			})
		// Emit each piece as the planar rule of SimplifyWith leaves it: read
		// off its ring where the ring is full-dimensional and labelled —
		// from the chain's atoms, building its conjunction only where a
		// strict atom touches a vertex — and through the rule itself on the
		// built piece otherwise (no form, a declined clipper, a flat or
		// foreign scope). Both are the rule's answer, so the output does
		// not depend on which deciders ran. The pieces share t1's
		// relational part: WithConstraint reuses the binding map.
		for _, p := range pieces {
			con, ok := p.Scope.Irredundant(p.Chain)
			if !ok {
				con = p.Chain.Con().SimplifyPlanar()
			}
			out = append(out, t1.WithConstraint(con))
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	// A piece keeps t1's bindings and holds atoms of t1 and of tuples of r2,
	// over the constraint attributes the two equal schemas share: valid for
	// r1's schema by construction.
	out := relation.FromValid(r1.Schema(), diff)
	rec.AddOut(out.Len())
	rec.Done(ec.ParallelFor(len(t1s)))
	return out, nil
}
