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

// constraint returns the atom as the stored constraint e {=, <=, <} 0, for
// e its expression with the relational variables bound.
func (a LinearAtom) constraint(e constraint.Expr) constraint.Constraint {
	c, _ := constraint.New(e, a.Op.String(), constraint.Expr{}) // fails on != only: a selection splits on it
	return c
}

// selection is a condition split once per operator along the schema's C/R
// flag, the two halves of the heterogeneous semantics:
//
//   - value atoms — string atoms, and linear atoms all of whose variables
//     are relational — are tested on the tuple's values, NULL matching
//     nothing, in one pass before any constraint work (keeps);
//   - the other linear atoms but != are one conjunction ξ, conjoined
//     broadly and decided once per surviving tuple as the pair (tuple, ξ)
//     by the join's decider list (deciders.decide). A relational variable
//     in ξ is the tuple's value (NULL rejects), so ξ is built once per
//     operator unless an atom reads one;
//   - the != atoms over a constraint attribute split each survivor into
//     its e < 0 and e > 0 halves, last, each half one more pair.
//
// Canon is order-free, so neither the order of the atoms nor the split
// changes the output.
type selection struct {
	values Condition              // the value atoms
	reads  []string               // every relational attribute an atom reads: NULL rejects
	atoms  []LinearAtom           // ξ's atoms
	con    constraint.Conjunction // ξ, unless bound
	bound  bool                   // an atom of ξ reads a relational attribute: ξ is per tuple
	ne     []LinearAtom           // the != atoms over a constraint attribute
	// decide is false when no linear atom is a value atom or in ξ: string
	// atoms alone ask nothing of the constraint part.
	decide bool
}

// splitCondition splits cond, valid over s, into its selection.
func splitCondition(cond Condition, s schema.Schema) *selection {
	sel := &selection{}
	for _, a := range cond {
		vars, n := a.attrs(), len(sel.reads)
		for _, v := range vars {
			if attr, _ := s.Attr(v); attr.Kind == schema.Relational {
				sel.reads = append(sel.reads, v)
			}
		}
		la, linear := a.(LinearAtom)
		switch {
		case len(sel.reads)-n == len(vars):
			sel.values = append(sel.values, a)
			sel.decide = sel.decide || linear
		case la.Op == OpNe:
			sel.ne = append(sel.ne, la)
		default:
			sel.atoms = append(sel.atoms, la)
			sel.bound = sel.bound || len(sel.reads) > n
			sel.decide = true
		}
	}
	if !sel.bound {
		sel.con = sel.xi(relation.Tuple{})
	}
	return sel
}

// keeps is the value pass: t binds every relational attribute the atoms
// read and satisfies every value atom.
func (sel *selection) keeps(t relation.Tuple) bool {
	for _, v := range sel.reads {
		if _, ok := t.RVal(v); !ok {
			return false
		}
	}
	for _, a := range sel.values {
		switch at := a.(type) {
		case StringAtom:
			lv, _ := t.RVal(at.Attr)
			rv := relation.Str(at.Lit)
			if !at.IsLit {
				rv, _ = t.RVal(at.OtherAttr)
			}
			if lv.Equal(rv) != (at.Op == OpEq) {
				return false
			}
		case LinearAtom:
			e := bind(at.Expr, t) // a constant
			if at.Op == OpNe {
				if e.ConstTerm().IsZero() {
					return false
				}
			} else if _, holds := at.constraint(e).IsTrivial(); !holds {
				return false
			}
		}
	}
	return true
}

// bind substitutes t's values for the variables of e that t binds: its
// relational ones.
func bind(e constraint.Expr, t relation.Tuple) constraint.Expr {
	out := e
	for _, term := range e.Terms() {
		if v, ok := t.RVal(term.Var); ok {
			r, _ := v.AsRat()
			out = out.Substitute(term.Var, constraint.Const(r))
		}
	}
	return out
}

// xi builds ξ, canonical, for the tuple t.
func (sel *selection) xi(t relation.Tuple) constraint.Conjunction {
	cs := make([]constraint.Constraint, len(sel.atoms))
	for i, a := range sel.atoms {
		cs[i] = a.constraint(bind(a.Expr, t))
	}
	return constraint.And(cs...).Canon()
}

// refine decides one value-pass survivor: once as the pair (its constraint
// part, ξ), then once per half of every != atom, and appends what is left
// of it to out, canonical.
func (sel *selection) refine(out []relation.Tuple, t relation.Tuple, dec deciders, rec *exec.OpRecorder) []relation.Tuple {
	if sel.decide {
		xi := sel.con
		if sel.bound {
			xi = sel.xi(t)
		}
		con, sat := dec.decide(rec, t.Constraint(), xi)
		if !sat {
			return out
		}
		t = t.WithConstraint(con)
	}
	// The variants live at out[first:]; each != atom appends the halves of
	// the current ones after them and moves the halves down in their place.
	first := len(out)
	out = append(out, t)
	for _, a := range sel.ne {
		e := bind(a.Expr, t)
		halves := [2]constraint.Conjunction{
			constraint.And(constraint.Constraint{Expr: e, Op: constraint.Lt}).Canon(),
			constraint.And(constraint.Constraint{Expr: e.Neg(), Op: constraint.Lt}).Canon(),
		}
		end := len(out)
		for k := first; k < end; k++ {
			v := out[k]
			for _, h := range halves {
				if con, sat := dec.decide(rec, v.Constraint(), h); sat {
					out = append(out, v.WithConstraint(con))
				}
			}
		}
		out = append(out[:first], out[end:]...)
	}
	for k := first; k < len(out); k++ {
		out[k] = out[k].Canon()
	}
	return out
}
