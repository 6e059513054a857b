package cqa

import (
	"fmt"

	"cdb/internal/constraint"
	"cdb/internal/exec"
	"cdb/internal/relation"
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
	variantLists, err := exec.Map(ec, len(tuples), func(i int) ([]relation.Tuple, error) {
		return sel.refine(tuples[i], dec, rec), nil
	})
	if err != nil {
		return nil, err
	}
	out := relation.New(r.Schema())
	for _, variants := range variantLists {
		for _, v := range variants {
			if err := out.Add(v.Canon()); err != nil {
				return nil, err
			}
		}
	}
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
func ProjectCtx(ec *exec.Context, r *relation.Relation, cols ...string) (*relation.Relation, error) {
	ps, err := r.Schema().Project(cols...)
	if err != nil {
		return nil, err
	}
	keep := map[string]bool{}
	for _, c := range cols {
		keep[c] = true
	}
	var dropCon []string
	for _, name := range r.Schema().ConstraintNames() {
		if !keep[name] {
			dropCon = append(dropCon, name)
		}
	}
	rec := ec.StartOp("project", r.Len())
	tuples := r.Tuples()
	results, err := exec.Map(ec, len(tuples), func(i int) (kept, error) {
		t := tuples[i]
		con := t.Constraint().Eliminate(dropCon...).Canon()
		// A non-empty box projects to a non-empty box: nothing to ask.
		if !t.Constraint().IsBox() && !rec.Satisfiable(con) {
			return kept{}, nil
		}
		rvals := map[string]relation.Value{}
		for name, v := range t.RVals() {
			if keep[name] {
				rvals[name] = v
			}
		}
		return kept{relation.NewTuple(rvals, con), true}, nil
	})
	if err != nil {
		return nil, err
	}
	out := relation.New(ps)
	for _, t := range keptTuples(results) {
		if err := out.Add(t); err != nil {
			return nil, err
		}
	}
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
	refine := func(t1, t2 relation.Tuple) (kept, error) {
		con, sat := dec.decide(rec, t1.Constraint(), t2.Constraint())
		if !sat {
			return kept{}, nil
		}
		return kept{relation.JoinTuple(t1, t2, con), true}, nil
	}
	var results []kept
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
		results, err = exec.Map(ec, items, func(k int) (kept, error) {
			idx := plan.cands[k]
			return refine(plan.t1s[idx/len(t2s)], plan.t2s[idx%len(t2s)])
		})
	} else {
		// The reference path: no envelope compared, dec stays empty.
		rec.Pairs(int64(pairs), 0)
		results, err = exec.Map(ec, pairs, func(i int) (kept, error) {
			t1, t2 := t1s[i/len(t2s)], t2s[i%len(t2s)]
			for _, name := range sharedRel {
				v1, _ := t1.RVal(name) // NULL when unbound
				v2, _ := t2.RVal(name)
				if !v1.Identical(v2) {
					return kept{}, nil
				}
			}
			return refine(t1, t2)
		})
	}
	if err != nil {
		return nil, err
	}
	// Every result joins two valid tuples into a tuple valid for js, the
	// schema join checked above (relation.FromJoin).
	out := relation.FromJoin(js, keptTuples(results))
	rec.AddOut(out.Len())
	rec.Done(ec.ParallelFor(items))
	return out, nil
}

// kept is one per-tuple result by value: the tuple, and whether there is
// one.
type kept struct {
	t  relation.Tuple
	ok bool
}

// keptTuples returns the tuples of the results that hold one, in order.
func keptTuples(results []kept) []relation.Tuple {
	out := make([]relation.Tuple, 0, len(results))
	for _, r := range results {
		if r.ok {
			out = append(out, r.t)
		}
	}
	return out
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
	results, err := exec.Map(ec, len(all), func(i int) (kept, error) {
		t := all[i]
		con := t.Constraint().SimplifyWith(rec.SatFunc())
		if con.IsFalse() { // unsatisfiable: decided once, inside SimplifyWith
			return kept{}, nil
		}
		return kept{t.WithConstraint(con.Canon()), true}, nil
	})
	if err != nil {
		return nil, err
	}
	out := relation.New(r1.Schema())
	for _, t := range relation.Distinct(keptTuples(results)) {
		if err := out.Add(t); err != nil {
			return nil, err
		}
	}
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
	rows, err := exec.Map(ec, len(t1s), func(i int) ([]relation.Tuple, error) {
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
		// proven satisfiable. With a polygon form for t1 each piece carries
		// t1's ring clipped by the atoms accumulated on top of it, and a
		// decision is one more clip; an atom the clipper cannot decide, or a
		// t1 without a form, goes to the recorder. The verdicts are FM's
		// either way, so the pieces are too. They share t1's relational
		// part: WithConstraint reuses the binding map.
		var f1 *vector.Form
		var root vector.Scope
		if dec.clip {
			if f1 = vector.FormOf(c1); f1 != nil {
				root = f1.Scope()
			}
		}
		pieces := constraint.SubtractAllScoped(t1.Constraint(), subtrahends, root,
			func(parent vector.Scope, prefix constraint.Conjunction, atom constraint.Constraint) (vector.Scope, bool) {
				if f1 != nil {
					child, sat, ok := parent.Clip(atom)
					if ok {
						rec.VectorHit(sat, false)
						return child, sat
					}
					rec.VectorFallback()
					parent = child
				}
				return parent, rec.Satisfiable(prefix.With(atom))
			})
		keepPieces := make([]relation.Tuple, 0, len(pieces))
		for _, con := range pieces {
			keepPieces = append(keepPieces, t1.WithConstraint(con.Canon()))
		}
		return keepPieces, nil
	})
	if err != nil {
		return nil, err
	}
	out := relation.New(r1.Schema())
	for _, pieces := range rows {
		for _, t := range pieces {
			if err := out.Add(t); err != nil {
				return nil, err
			}
		}
	}
	rec.AddOut(out.Len())
	rec.Done(ec.ParallelFor(len(t1s)))
	return out, nil
}
