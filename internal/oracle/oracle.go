// Package oracle is the semantic correctness oracle for the CQA engine: a
// deliberately-naive, obviously-correct reference evaluator for the
// point-set semantics of constraint relations (§2.5's closure principle
// says every operator's output *denotes exactly the right point set* — this
// package is how that claim is checked, rather than assumed).
//
// The oracle has three parts:
//
//   - exact rational point membership (In, Holds): a point is in a relation
//     iff some tuple admits it, decided by direct substitution and sign
//     tests over exact rationals — no Fourier-Motzkin, no canonicalisation,
//     no caches, no simplex, none of the engine's optimised machinery;
//   - witness point generation (Witnesses): finite probe sets built from
//     the constraint geometry (single-variable intercepts, pairwise
//     boundary vertices, midpoints, just-outside offsets) plus seeded
//     random rational points;
//   - set-theoretic operator evaluation (Apply.Holds): for each of the
//     seven CQA operators, and for a conjunctive rule of the calculus front
//     end (rule.go), the textbook pointwise characterisation of the
//     output's semantics in terms of the inputs' semantics. Project is the
//     only operator that needs more than membership of the inputs — its
//     existential quantifier over the dropped attributes is decided by an
//     independent, unoptimised textbook Fourier-Motzkin (naiveSat) that
//     shares no code with the engine's eliminator.
//
// On top of these, diff.go implements the differential harness: random
// inputs, engine run vs oracle evaluation, membership compared on the
// combined witness set, failures minimised before reporting.
//
// Everything is exact rational arithmetic; there is no floating point
// anywhere in this package.
package oracle

import (
	"fmt"
	"sort"
	"strings"

	"cdb/internal/calculus"
	"cdb/internal/constraint"
	"cdb/internal/cqa"
	"cdb/internal/rational"
	"cdb/internal/relation"
	"cdb/internal/schema"
)

// evalExpr evaluates a linear expression at a point by direct
// substitution. ok=false when a referenced attribute is NULL or non-
// rational at the point (the narrow missing-value semantics: a NULL never
// satisfies a comparison).
func evalExpr(e constraint.Expr, p relation.Point) (rational.Rat, bool) {
	sum := e.ConstTerm()
	for _, t := range e.Terms() {
		v, present := p[t.Var]
		if !present {
			return rational.Zero, false
		}
		r, isRat := v.AsRat()
		if !isRat {
			return rational.Zero, false
		}
		sum = sum.Add(t.Coef.Mul(r))
	}
	return sum, true
}

// atomHolds evaluates one atomic constraint at a point: substitute, then a
// single sign test.
func atomHolds(c constraint.Constraint, p relation.Point) bool {
	v, ok := evalExpr(c.Expr, p)
	if !ok {
		return false
	}
	switch c.Op {
	case constraint.Eq:
		return v.IsZero()
	case constraint.Le:
		return v.Sign() <= 0
	default: // Lt
		return v.Sign() < 0
	}
}

// tupleAdmits reports whether tuple t admits point p under schema s: every
// relational attribute's binding (NULL when unbound) must be identical to
// the point's value (narrow semantics), and the point must satisfy every
// atomic constraint (broad semantics: an unconstrained attribute imposes
// nothing).
func tupleAdmits(t relation.Tuple, s schema.Schema, p relation.Point) bool {
	for _, a := range s.Attrs() {
		if a.Kind != schema.Relational {
			continue
		}
		tv, _ := t.RVal(a.Name) // NULL when unbound
		if !tv.Identical(p[a.Name]) {
			return false
		}
	}
	for _, c := range t.Constraint().Constraints() {
		if !atomHolds(c, p) {
			return false
		}
	}
	return true
}

// In reports exact membership of point p in the semantics of r, by the
// naive definition: some tuple admits the point. The point must bind every
// attribute of r's schema, with rational values for constraint attributes.
func In(r *relation.Relation, p relation.Point) (bool, error) {
	for _, a := range r.Schema().Attrs() {
		v, present := p[a.Name]
		if !present {
			return false, fmt.Errorf("oracle: point missing attribute %q", a.Name)
		}
		if a.Kind == schema.Constraint {
			if _, isRat := v.AsRat(); !isRat {
				return false, fmt.Errorf("oracle: point has non-rational value for constraint attribute %q", a.Name)
			}
		}
	}
	for _, t := range r.Tuples() {
		if tupleAdmits(t, r.Schema(), p) {
			return true, nil
		}
	}
	return false, nil
}

// naiveSat decides satisfiability of a conjunction of atomic constraints
// by textbook Fourier-Motzkin elimination, independently of the engine's
// eliminator: equalities are split into two inequalities up front (no
// Gauss substitution step), variables are eliminated in sorted order (no
// heuristics), and nothing is swept, canonicalised or cached. Exponential
// in the worst case — callers keep inputs small; correctness is the only
// concern here.
func naiveSat(cs []constraint.Constraint) bool {
	// Split e = 0 into e <= 0 and -e <= 0.
	work := make([]constraint.Constraint, 0, len(cs))
	for _, c := range cs {
		if c.Op == constraint.Eq {
			work = append(work,
				constraint.Constraint{Expr: c.Expr, Op: constraint.Le},
				constraint.Constraint{Expr: c.Expr.Neg(), Op: constraint.Le})
			continue
		}
		work = append(work, c)
	}
	varSet := map[string]bool{}
	for _, c := range work {
		for _, v := range c.Expr.Vars() {
			varSet[v] = true
		}
	}
	vars := make([]string, 0, len(varSet))
	for v := range varSet {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	for _, v := range vars {
		var lowers, uppers, rest []constraint.Constraint
		for _, c := range work {
			a := c.Expr.Coef(v)
			switch {
			case a.IsZero():
				rest = append(rest, c)
			case a.Sign() > 0:
				uppers = append(uppers, c)
			default:
				lowers = append(lowers, c)
			}
		}
		work = rest
		for _, lo := range lowers {
			al := lo.Expr.Coef(v) // < 0
			for _, up := range uppers {
				au := up.Expr.Coef(v) // > 0
				comb := up.Expr.Scale(al.Neg()).Add(lo.Expr.Scale(au))
				op := constraint.Le
				if lo.Op == constraint.Lt || up.Op == constraint.Lt {
					op = constraint.Lt
				}
				work = append(work, constraint.Constraint{Expr: comb, Op: op})
			}
		}
	}
	// All variables eliminated: every residual is constant.
	for _, c := range work {
		k := c.Expr.ConstTerm()
		if c.Op == constraint.Le && k.Sign() > 0 {
			return false
		}
		if c.Op == constraint.Lt && k.Sign() >= 0 {
			return false
		}
	}
	return true
}

// Sat is naiveSat over a conjunction: the oracle's independent
// satisfiability decision, used as the reference in the Fourier-Motzkin
// fuzz target and the projection oracle.
func Sat(j constraint.Conjunction) bool {
	return naiveSat(j.Constraints())
}

// inProjection reports exact membership of q (a point over the projected
// schema, attributes keep) in π_keep(r): some tuple must match q on the
// kept relational attributes and have a satisfiable residual constraint
// once the kept constraint attributes are pinned to q's coordinates. The
// dropped relational attributes are existentially free (the witness
// extension can always copy the tuple's own binding), and the residual
// satisfiability over the dropped constraint attributes is decided by
// naiveSat.
func inProjection(r *relation.Relation, keep []string, q relation.Point) (bool, error) {
	keepSet := map[string]bool{}
	for _, k := range keep {
		keepSet[k] = true
	}
	for _, k := range keep {
		a, ok := r.Schema().Attr(k)
		if !ok {
			return false, fmt.Errorf("oracle: projection attribute %q not in schema", k)
		}
		v, present := q[k]
		if !present {
			return false, fmt.Errorf("oracle: point missing attribute %q", k)
		}
		if a.Kind == schema.Constraint {
			if _, isRat := v.AsRat(); !isRat {
				return false, fmt.Errorf("oracle: point has non-rational value for constraint attribute %q", k)
			}
		}
	}
	for _, t := range r.Tuples() {
		ok := true
		for _, a := range r.Schema().Attrs() {
			if a.Kind != schema.Relational || !keepSet[a.Name] {
				continue
			}
			tv, _ := t.RVal(a.Name)
			if !tv.Identical(q[a.Name]) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		residual := make([]constraint.Constraint, 0, t.Constraint().Len())
		for _, c := range t.Constraint().Constraints() {
			e := c.Expr
			for _, v := range c.Expr.Vars() {
				if !keepSet[v] {
					continue
				}
				rv, _ := q[v].AsRat()
				e = e.Substitute(v, constraint.Const(rv))
			}
			residual = append(residual, constraint.Constraint{Expr: e, Op: c.Op})
		}
		if naiveSat(residual) {
			return true, nil
		}
	}
	return false, nil
}

// CondHolds evaluates a selection condition at a point: every atom must
// hold. NULL relational values satisfy nothing (narrow semantics), exactly
// as the engine's per-tuple evaluation behaves on the admitted points.
func CondHolds(cond cqa.Condition, p relation.Point) (bool, error) {
	for _, a := range cond {
		switch at := a.(type) {
		case cqa.StringAtom:
			lv, present := p[at.Attr]
			if !present || lv.IsNull() {
				return false, nil
			}
			var rv relation.Value
			if at.IsLit {
				rv = relation.Str(at.Lit)
			} else {
				ov, ok := p[at.OtherAttr]
				if !ok || ov.IsNull() {
					return false, nil
				}
				rv = ov
			}
			eq := lv.Equal(rv)
			if (at.Op == cqa.OpEq && !eq) || (at.Op == cqa.OpNe && eq) {
				return false, nil
			}
		case cqa.LinearAtom:
			v, ok := evalExpr(at.Expr, p)
			if !ok {
				return false, nil // a NULL operand matches nothing
			}
			s := v.Sign()
			hold := false
			switch at.Op {
			case cqa.OpEq:
				hold = s == 0
			case cqa.OpNe:
				hold = s != 0
			case cqa.OpLt:
				hold = s < 0
			case cqa.OpLe:
				hold = s <= 0
			case cqa.OpGt:
				hold = s > 0
			case cqa.OpGe:
				hold = s >= 0
			}
			if !hold {
				return false, nil
			}
		default:
			return false, fmt.Errorf("oracle: unknown atom type %T", a)
		}
	}
	return true, nil
}

// Apply describes one CQA operator application — the unit the differential
// harness compares engine-vs-oracle on. R2-less operators (select,
// project, rename) ignore the second relation.
type Apply struct {
	Op   string        // select | project | join | intersect | union | rename | difference | rule
	Cond cqa.Condition // select
	Cols []string      // project: kept attributes
	Old  string        // rename
	New  string        // rename
	Rule calculus.Rule // rule: a conjunctive rule over R1 and R2 (rule.go)
}

// String renders the application for failure reports.
func (a Apply) String() string {
	switch a.Op {
	case "select":
		return fmt.Sprintf("select %s", a.Cond)
	case "project":
		return fmt.Sprintf("project on %v", a.Cols)
	case "rename":
		return fmt.Sprintf("rename %s to %s", a.Old, a.New)
	case "rule":
		return strings.TrimSpace((&calculus.Program{Rules: []calculus.Rule{a.Rule}}).String())
	default:
		return a.Op
	}
}

// restrict returns the sub-point of p over schema s.
func restrict(p relation.Point, s schema.Schema) relation.Point {
	out := relation.Point{}
	for _, name := range s.Names() {
		out[name] = p[name]
	}
	return out
}

// Holds is the oracle's ground truth: membership of point p (over the
// OUTPUT schema of the application) in the semantics of a(r1, r2), decided
// set-theoretically from the inputs via the operators' pointwise
// characterisations:
//
//	p ∈ ς_ξ(r)    iff  p ∈ r and ξ(p)
//	p ∈ π_X(r)    iff  some extension of p to α(r) is in r
//	p ∈ r1 ⋈ r2   iff  p|α(r1) ∈ r1 and p|α(r2) ∈ r2
//	p ∈ r1 ∩ r2   iff  p ∈ r1 and p ∈ r2
//	p ∈ r1 ∪ r2   iff  p ∈ r1 or p ∈ r2
//	p ∈ ϱ_{n|o}r  iff  p[n↦o] ∈ r
//	p ∈ r1 − r2   iff  p ∈ r1 and p ∉ r2
//
// and, for a rule over R1 = r1 and R2 = r2, the specification in rule.go.
func (a Apply) Holds(r1, r2 *relation.Relation, p relation.Point) (bool, error) {
	switch a.Op {
	case "select":
		in, err := In(r1, p)
		if err != nil || !in {
			return false, err
		}
		return CondHolds(a.Cond, p)
	case "project":
		return inProjection(r1, a.Cols, p)
	case "join":
		in1, err := In(r1, restrict(p, r1.Schema()))
		if err != nil || !in1 {
			return false, err
		}
		return In(r2, restrict(p, r2.Schema()))
	case "intersect":
		in1, err := In(r1, p)
		if err != nil || !in1 {
			return false, err
		}
		return In(r2, p)
	case "union":
		in1, err := In(r1, p)
		if err != nil || in1 {
			return in1, err
		}
		return In(r2, p)
	case "rename":
		q := relation.Point{}
		for k, v := range p {
			if k == a.New {
				q[a.Old] = v
			} else {
				q[k] = v
			}
		}
		return In(r1, q)
	case "difference":
		in1, err := In(r1, p)
		if err != nil || !in1 {
			return false, err
		}
		in2, err := In(r2, p)
		return !in2, err
	case "rule":
		return ruleHolds(a.Rule, ruleRels(r1, r2), p), nil
	default:
		return false, fmt.Errorf("oracle: unknown operator %q", a.Op)
	}
}
