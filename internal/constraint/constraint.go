package constraint

import (
	"fmt"
	"strconv"

	"cdb/internal/rational"
)

// Op is the relational operator of an atomic constraint Expr OP 0.
// Only {=, <=, <} are stored; >=, > and user-level comparisons between two
// expressions are normalised into this form by the constructors.
type Op int

const (
	Eq Op = iota // Expr = 0
	Le           // Expr <= 0
	Lt           // Expr < 0
)

func (o Op) String() string {
	switch o {
	case Eq:
		return "="
	case Le:
		return "<="
	case Lt:
		return "<"
	default:
		return "Op(" + strconv.Itoa(int(o)) + ")"
	}
}

// Constraint is an atomic rational linear constraint, stored in the
// normal form Expr OP 0.
type Constraint struct {
	Expr Expr
	Op   Op
}

// New returns the constraint lhs op rhs for a user-level comparison
// operator: one of "=", "==", "!=" is not accepted here (disequality is not
// convex; see Complement), "<", "<=", ">", ">=".
func New(lhs Expr, op string, rhs Expr) (Constraint, error) {
	switch op {
	case "=", "==":
		return Constraint{Expr: lhs.Sub(rhs), Op: Eq}, nil
	case "<=":
		return Constraint{Expr: lhs.Sub(rhs), Op: Le}, nil
	case "<":
		return Constraint{Expr: lhs.Sub(rhs), Op: Lt}, nil
	case ">=":
		return Constraint{Expr: rhs.Sub(lhs), Op: Le}, nil
	case ">":
		return Constraint{Expr: rhs.Sub(lhs), Op: Lt}, nil
	default:
		return Constraint{}, fmt.Errorf("constraint: unsupported operator %q", op)
	}
}

// MustNew is like New but panics on error. Intended for fixtures and tests.
func MustNew(lhs Expr, op string, rhs Expr) Constraint {
	c, err := New(lhs, op, rhs)
	if err != nil {
		panic(err)
	}
	return c
}

// EqConst returns the constraint v = k.
func EqConst(v string, k rational.Rat) Constraint {
	return Constraint{Expr: Var(v).Sub(Const(k)), Op: Eq}
}

// LeConst returns the constraint v <= k.
func LeConst(v string, k rational.Rat) Constraint {
	return Constraint{Expr: Var(v).Sub(Const(k)), Op: Le}
}

// GeConst returns the constraint v >= k.
func GeConst(v string, k rational.Rat) Constraint {
	return Constraint{Expr: Const(k).Sub(Var(v)), Op: Le}
}

// LtConst returns the constraint v < k.
func LtConst(v string, k rational.Rat) Constraint {
	return Constraint{Expr: Var(v).Sub(Const(k)), Op: Lt}
}

// GtConst returns the constraint v > k.
func GtConst(v string, k rational.Rat) Constraint {
	return Constraint{Expr: Const(k).Sub(Var(v)), Op: Lt}
}

// IsTrivial reports whether c has no variables, together with its truth
// value in that case. For constraints with variables it returns (false, _).
func (c Constraint) IsTrivial() (trivial, value bool) {
	if !c.Expr.IsConst() {
		return false, false
	}
	k := c.Expr.ConstTerm()
	switch c.Op {
	case Eq:
		return true, k.IsZero()
	case Le:
		return true, k.Sign() <= 0
	default: // Lt
		return true, k.Sign() < 0
	}
}

// Holds evaluates c under the assignment.
func (c Constraint) Holds(assign map[string]rational.Rat) (bool, error) {
	v, err := c.Expr.Eval(assign)
	if err != nil {
		return false, err
	}
	switch c.Op {
	case Eq:
		return v.IsZero(), nil
	case Le:
		return v.Sign() <= 0, nil
	default:
		return v.Sign() < 0, nil
	}
}

// Complement returns the negation of c as a disjunction of constraints
// (one constraint for inequalities, two for equalities):
//
//	¬(e = 0)  ≡  e < 0  ∨  -e < 0
//	¬(e <= 0) ≡  -e < 0
//	¬(e < 0)  ≡  -e <= 0
func (c Constraint) Complement() []Constraint {
	switch c.Op {
	case Eq:
		return []Constraint{
			{Expr: c.Expr, Op: Lt},
			{Expr: c.Expr.Neg(), Op: Lt},
		}
	case Le:
		return []Constraint{{Expr: c.Expr.Neg(), Op: Lt}}
	default: // Lt
		return []Constraint{{Expr: c.Expr.Neg(), Op: Le}}
	}
}

// Substitute returns c with variable v replaced by repl.
func (c Constraint) Substitute(v string, repl Expr) Constraint {
	return Constraint{Expr: c.Expr.Substitute(v, repl), Op: c.Op}
}

// RenameAll returns c under the simultaneous renaming m (Expr.RenameAll).
func (c Constraint) RenameAll(m map[string]string) Constraint {
	return Constraint{Expr: c.Expr.RenameAll(m), Op: c.Op}
}

// HasVar reports whether variable v occurs in c.
func (c Constraint) HasVar(v string) bool { return c.Expr.HasVar(v) }

// Key returns a canonical string key: equal keys imply identical constraint
// semantics (for the same Op family). The canonicalisation is Canonical
// (see canon.go).
func (c Constraint) Key() string {
	cc := c.Canonical()
	var buf [64]byte
	b := append(buf[:0], cc.Op.String()...)
	b = append(b, '|')
	return string(cc.Expr.appendTo(b))
}

// String renders c in the form "expr OP 0" with the constant moved to the
// right-hand side for readability, e.g. "x + 2y <= 5".
func (c Constraint) String() string {
	var buf [64]byte
	return string(c.appendTo(buf[:0]))
}

// appendTo appends the String rendering of c to b.
func (c Constraint) appendTo(b []byte) []byte {
	if len(c.Expr.terms) == 0 {
		b = c.Expr.c.AppendTo(b)
		b = append(b, ' ')
		b = append(b, c.Op.String()...)
		return append(b, " 0"...)
	}
	b = Expr{terms: c.Expr.terms}.appendTo(b)
	b = append(b, ' ')
	b = append(b, c.Op.String()...)
	b = append(b, ' ')
	return c.Expr.c.Neg().AppendTo(b)
}
