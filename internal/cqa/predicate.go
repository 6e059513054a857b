// Package cqa implements the Constraint Query Algebra of CQA/CDB: the six
// primitive operators of relational algebra (project, select, natural-join,
// union, rename, difference) reinterpreted over heterogeneous constraint
// relations, per §2.4 and §3 of the paper.
//
// The closure principle (§2.5) holds for every operator: the output of an
// operator over rational-linear constraint relations is again a
// rational-linear constraint relation, so operators compose freely and each
// can be proven correct against the (infinite) point-set semantics.
//
// Missing-attribute semantics follow the heterogeneous data model:
//
//   - a selection condition over a *relational* attribute that is unbound
//     in a tuple rejects the tuple (narrow semantics — NULL is distinct
//     from every value);
//   - a selection condition over a *constraint* attribute simply conjoins
//     the constraint (broad semantics — an unconstrained attribute admits
//     every value).
//
// The §3.1 missing-attribute inconsistency of the pure constraint model is
// therefore resolved by the schema flag, not by a query-time mode switch:
// declaring every attribute Constraint reproduces the classical (broad)
// constraint model, declaring every attribute Relational reproduces the
// classical relational model, and the two give different answers to the
// paper's Example 2 (see the tests).
package cqa

import (
	"fmt"
	"strings"

	"cdb/internal/constraint"
	"cdb/internal/exec"
	"cdb/internal/rational"
	"cdb/internal/relation"
	"cdb/internal/schema"
	"cdb/internal/vector"
)

// CompOp is a comparison operator of a selection atom.
type CompOp int

const (
	OpEq CompOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

var compOpNames = map[CompOp]string{
	OpEq: "=", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
}

func (o CompOp) String() string { return compOpNames[o] }

// ParseCompOp parses a comparison operator token.
func ParseCompOp(s string) (CompOp, error) {
	switch s {
	case "=", "==":
		return OpEq, nil
	case "!=", "<>":
		return OpNe, nil
	case "<":
		return OpLt, nil
	case "<=":
		return OpLe, nil
	case ">":
		return OpGt, nil
	case ">=":
		return OpGe, nil
	default:
		return 0, fmt.Errorf("cqa: unknown comparison operator %q", s)
	}
}

// Atom is one atomic selection condition. A selection condition is a
// conjunction of atoms (ξ in the paper's select operator).
type Atom interface {
	fmt.Stringer
	// attrs returns the attribute names referenced by the atom.
	attrs() []string
	isAtom()
}

// LinearAtom compares a linear expression over rational attributes with
// zero: Expr OP 0. Attributes of either kind may appear as long as their
// type is rational; relational rational attributes are substituted with the
// tuple's value at evaluation time (narrow semantics when unbound).
type LinearAtom struct {
	Expr constraint.Expr
	Op   CompOp
}

func (LinearAtom) isAtom() {}

func (a LinearAtom) attrs() []string { return a.Expr.Vars() }

func (a LinearAtom) String() string {
	// Render as "expr OP rhs" with the constant moved right.
	lhs := a.Expr.Sub(constraint.Const(a.Expr.ConstTerm()))
	rhs := a.Expr.ConstTerm().Neg()
	return fmt.Sprintf("%s %s %s", lhs, a.Op, rhs)
}

// Linear builds a LinearAtom lhs op rhs.
func Linear(lhs constraint.Expr, op CompOp, rhs constraint.Expr) LinearAtom {
	return LinearAtom{Expr: lhs.Sub(rhs), Op: op}
}

// AttrCmpConst builds the atom "attr op k" for a rational constant.
func AttrCmpConst(attr string, op CompOp, k rational.Rat) LinearAtom {
	return Linear(constraint.Var(attr), op, constraint.Const(k))
}

// AttrCmpAttr builds the atom "a op b" for two rational attributes.
func AttrCmpAttr(a string, op CompOp, b string) LinearAtom {
	return Linear(constraint.Var(a), op, constraint.Var(b))
}

// StringAtom compares a string attribute with a literal or with another
// string attribute. Only = and != are defined on strings.
type StringAtom struct {
	Attr string
	Op   CompOp // OpEq or OpNe
	// Exactly one of Lit / OtherAttr is used.
	Lit       string
	OtherAttr string
	IsLit     bool
}

func (StringAtom) isAtom() {}

func (a StringAtom) attrs() []string {
	if a.IsLit {
		return []string{a.Attr}
	}
	return []string{a.Attr, a.OtherAttr}
}

func (a StringAtom) String() string {
	if a.IsLit {
		return fmt.Sprintf("%s %s %q", a.Attr, a.Op, a.Lit)
	}
	return fmt.Sprintf("%s %s %s", a.Attr, a.Op, a.OtherAttr)
}

// StrEq builds the atom attr = lit.
func StrEq(attr, lit string) StringAtom {
	return StringAtom{Attr: attr, Op: OpEq, Lit: lit, IsLit: true}
}

// StrNe builds the atom attr != lit.
func StrNe(attr, lit string) StringAtom {
	return StringAtom{Attr: attr, Op: OpNe, Lit: lit, IsLit: true}
}

// StrEqAttr builds the atom a = b over two string attributes.
func StrEqAttr(a, b string) StringAtom {
	return StringAtom{Attr: a, Op: OpEq, OtherAttr: b}
}

// Condition is a conjunction of atoms.
type Condition []Atom

func (c Condition) String() string {
	parts := make([]string, len(c))
	for i, a := range c {
		parts[i] = a.String()
	}
	return strings.Join(parts, ", ")
}

// Validate checks the condition against a schema: every referenced
// attribute must exist; linear atoms must reference rational attributes;
// string atoms must reference string attributes and use =/!= only.
func (c Condition) Validate(s schema.Schema) error {
	for _, a := range c {
		switch at := a.(type) {
		case LinearAtom:
			for _, v := range at.Expr.Vars() {
				attr, ok := s.Attr(v)
				if !ok {
					return fmt.Errorf("cqa: condition references unknown attribute %q", v)
				}
				if attr.Type != schema.Rational {
					return fmt.Errorf("cqa: linear condition over non-rational attribute %q", v)
				}
			}
		case StringAtom:
			if at.Op != OpEq && at.Op != OpNe {
				return fmt.Errorf("cqa: operator %s not defined on strings", at.Op)
			}
			names := at.attrs()
			for _, v := range names {
				attr, ok := s.Attr(v)
				if !ok {
					return fmt.Errorf("cqa: condition references unknown attribute %q", v)
				}
				if attr.Type != schema.String {
					return fmt.Errorf("cqa: string condition over non-string attribute %q", v)
				}
			}
		default:
			return fmt.Errorf("cqa: unknown atom type %T", a)
		}
	}
	return nil
}

// evalAtom applies one atom to a tuple, returning the surviving tuple
// variants (empty = rejected; two variants for != over constraint
// attributes, which splits the region into the < and > half-spaces).
// Satisfiability decisions are recorded on rec (nil-safe); ec supplies
// the plan mode that gates the vector fast path in keepIfSat.
func evalAtom(a Atom, s schema.Schema, t relation.Tuple, ec *exec.Context, rec *exec.OpRecorder) ([]relation.Tuple, error) {
	switch at := a.(type) {
	case StringAtom:
		lv, bound := t.RVal(at.Attr)
		if !bound {
			return nil, nil // narrow semantics: NULL matches nothing
		}
		var rv relation.Value
		if at.IsLit {
			rv = relation.Str(at.Lit)
		} else {
			other, ok := t.RVal(at.OtherAttr)
			if !ok {
				return nil, nil
			}
			rv = other
		}
		eq := lv.Equal(rv)
		if (at.Op == OpEq && eq) || (at.Op == OpNe && !eq) {
			return []relation.Tuple{t}, nil
		}
		return nil, nil

	case LinearAtom:
		// Substitute relational rational attributes with their values.
		e := at.Expr
		for _, v := range at.Expr.Vars() {
			attr, _ := s.Attr(v)
			if attr.Kind != schema.Relational {
				continue
			}
			val, bound := t.RVal(v)
			if !bound {
				return nil, nil // narrow semantics
			}
			r, _ := val.AsRat()
			e = e.Substitute(v, constraint.Const(r))
		}
		// Remaining variables are constraint attributes: conjoin.
		switch at.Op {
		case OpEq, OpLe, OpLt:
			nc := constraint.Constraint{Expr: e, Op: map[CompOp]constraint.Op{
				OpEq: constraint.Eq, OpLe: constraint.Le, OpLt: constraint.Lt}[at.Op]}
			return keepIfSat(t, []constraint.Constraint{nc}, ec, rec), nil
		case OpGe:
			return keepIfSat(t, []constraint.Constraint{{Expr: e.Neg(), Op: constraint.Le}}, ec, rec), nil
		case OpGt:
			return keepIfSat(t, []constraint.Constraint{{Expr: e.Neg(), Op: constraint.Lt}}, ec, rec), nil
		case OpNe:
			// e != 0 splits into e < 0 and e > 0.
			var out []relation.Tuple
			out = append(out, keepIfSat(t, []constraint.Constraint{{Expr: e, Op: constraint.Lt}}, ec, rec)...)
			out = append(out, keepIfSat(t, []constraint.Constraint{{Expr: e.Neg(), Op: constraint.Lt}}, ec, rec)...)
			return out, nil
		}
	}
	return nil, fmt.Errorf("cqa: unknown atom type %T", a)
}

// keepIfSat conjoins the added atoms onto t, canonicalises, and keeps the
// result if satisfiable. Under PlanAuto and PlanVector the decision runs
// through the vector fast path when t's constraint part has a cached
// polygon form: the added atoms clip the polygon (vector.SatExtras)
// instead of rebuilding the conjunction for the eliminator. The emitted
// tuple is constructed identically on every path, so the output bytes
// never depend on which oracle decided; forcing dense or sweep keeps
// the decisions purely on FM for baseline comparisons.
func keepIfSat(t relation.Tuple, added []constraint.Constraint, ec *exec.Context, rec *exec.OpRecorder) []relation.Tuple {
	if mode := ec.Plan(); mode == exec.PlanAuto || mode == exec.PlanVector {
		if form := vector.FormOf(t.Constraint()); form != nil {
			if sat, ok := vector.SatExtras(form, added); ok {
				rec.VectorHit(sat, false)
				if !sat {
					// Rejected without ever building the conjoined
					// conjunction — rejected variants emit nothing, so
					// skipping their Canon cannot change the output.
					return nil
				}
				return []relation.Tuple{t.AndConstraints(added...).Canon()}
			}
			rec.VectorFallback()
		}
	}
	ct := t.AndConstraints(added...).Canon()
	if rec.Satisfiable(ct.Constraint()) {
		return []relation.Tuple{ct}
	}
	return nil
}
