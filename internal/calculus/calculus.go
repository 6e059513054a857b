// Package calculus implements a declarative, calculus-style front end for
// CQA/CDB: non-recursive conjunctive rules in the Datalog-with-constraints
// tradition of the constraint query calculi (CQC) of Kanellakis, Kuper and
// Revesz.
//
// §2.2 of the paper describes the architecture this package completes:
// "it is typical that declarative user queries are translated into
// algebraic expressions before they are optimized and evaluated" — rules
// here are *translated to CQA plans* (package cqa) and evaluated by the
// algebra, exercising the CQC ≡ CQA equivalence of Goldin-Kanellakis on
// the positive-conjunctive fragment.
//
// Syntax (one or more rules, each terminated by '.'):
//
//	owned(name, t)  :- Landownership(name, t, id), id = "A".
//	hit(name)       :- owned(name, t), Hurricane(t, x, y), Land(id2, x, y).
//
// Body atoms are relation atoms R(term, ...) — with positional terms that
// are variables, "_" (anonymous), quoted strings, or rational numbers —
// and comparison atoms over the variables (linear over rationals; = / !=
// against quoted strings). Rules are range-restricted: every head
// variable must occur in some relation atom. Later rules may use earlier
// rules' heads (non-recursive stratification is enforced). Rules sharing
// a head name union.
package calculus

import (
	"fmt"
	"strings"

	"cdb/internal/constraint"
	"cdb/internal/cqa"
	"cdb/internal/exec"
	"cdb/internal/rational"
	"cdb/internal/relation"
	"cdb/internal/schema"
)

// Term is one positional argument of a relation atom.
type Term struct {
	Var  string // variable name ("" when a constant or anonymous)
	Str  string
	Rat  rational.Rat
	Kind TermKind
}

// TermKind discriminates Term.
type TermKind int

const (
	// TermVar is a variable.
	TermVar TermKind = iota
	// TermAnon is the anonymous variable "_".
	TermAnon
	// TermStr is a quoted string constant.
	TermStr
	// TermRat is a rational constant.
	TermRat
)

// RelAtom is R(t1, ..., tn).
type RelAtom struct {
	Name  string
	Terms []Term
}

// CompAtom is a comparison over variables: either a linear comparison
// (Lhs Op Rhs as variable/constant combinations parsed into coefficient
// form by the parser) or a string comparison.
type CompAtom struct {
	// Linear form: sum of (Coef, Var) plus Const, OP 0.
	Terms []LinTerm
	Const rational.Rat
	Op    cqa.CompOp
	// String form (used when IsStr): Var op StrLit or Var op OtherVar.
	IsStr    bool
	Var      string
	OtherVar string
	StrLit   string
	HasLit   bool
}

// LinTerm is one coefficient-variable pair of a linear comparison.
type LinTerm struct {
	Coef rational.Rat
	Var  string
}

// quoteStr quotes a string literal in exactly the form the rule lexer
// decodes (its inverse): quote, backslash and the common control
// characters escape, every other byte is emitted raw. Go's %q is NOT
// suitable here — it emits escapes like \f that the lexer decodes to a
// plain 'f'.
func quoteStr(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"', '\\':
			b.WriteByte('\\')
			b.WriteByte(c)
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		case '\r':
			b.WriteString(`\r`)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// String renders the comparison back to rule syntax ("2 x - y <= 10",
// `id = "A"`), exactly the form the parser accepts, with the constant
// moved to the right-hand side.
func (a CompAtom) String() string {
	if a.IsStr {
		if a.HasLit {
			return fmt.Sprintf("%s %s %s", a.Var, a.Op, quoteStr(a.StrLit))
		}
		return fmt.Sprintf("%s %s %s", a.Var, a.Op, a.OtherVar)
	}
	var b strings.Builder
	if len(a.Terms) == 0 {
		b.WriteString("0")
	}
	for i, t := range a.Terms {
		coef := t.Coef
		if neg := coef.Sign() < 0; neg {
			coef = coef.Neg()
			if i == 0 {
				b.WriteString("-")
			} else {
				b.WriteString(" - ")
			}
		} else if i > 0 {
			b.WriteString(" + ")
		}
		if !coef.Equal(rational.One) {
			b.WriteString(coef.String())
			b.WriteString(" ")
		}
		b.WriteString(t.Var)
	}
	fmt.Fprintf(&b, " %s %s", a.Op, a.Const.Neg())
	return b.String()
}

// Rule is head :- body.
type Rule struct {
	HeadName string
	HeadVars []string
	Rels     []RelAtom
	Comps    []CompAtom
	Line     int
}

// Program is an ordered list of rules.
type Program struct {
	Rules []Rule
}

// Translate compiles one rule into a CQA plan against the given schema
// environment. The construction is the textbook conjunctive-query
// translation: rename every atom's attributes apart, cross-join, select
// the induced equalities and the comparison atoms, project onto the head
// variables' representatives, and rename them to the head variable names.
func (r Rule) Translate(env cqa.SchemaEnv) (cqa.Node, error) {
	if len(r.Rels) == 0 {
		return nil, fmt.Errorf("calculus: line %d: rule body has no relation atoms", r.Line)
	}
	// rep maps each variable to its representative fresh attribute; occ
	// collects all fresh attributes bound to a variable.
	rep := map[string]string{}
	repAttr := map[string]schema.Attribute{}
	var eqConds cqa.Condition
	var constConds cqa.Condition

	var plan cqa.Node
	for ai, atom := range r.Rels {
		s, ok := env[atom.Name]
		if !ok {
			return nil, fmt.Errorf("calculus: line %d: unknown relation %q", r.Line, atom.Name)
		}
		if len(atom.Terms) != s.Len() {
			return nil, fmt.Errorf("calculus: line %d: %s has arity %d, atom has %d terms",
				r.Line, atom.Name, s.Len(), len(atom.Terms))
		}
		// Rename every attribute of this atom to a fresh name.
		var node cqa.Node = cqa.Scan(atom.Name)
		attrs := s.Attrs()
		freshNames := make([]string, len(attrs))
		for i, a := range attrs {
			fresh := fmt.Sprintf("$a%dp%d", ai, i)
			freshNames[i] = fresh
			node = cqa.NewRename(node, a.Name, fresh)
		}
		if plan == nil {
			plan = node
		} else {
			plan = cqa.NewJoin(plan, node) // disjoint attrs: cross product
		}
		// Bind terms.
		for i, t := range atom.Terms {
			a := attrs[i]
			fresh := freshNames[i]
			switch t.Kind {
			case TermAnon:
				// nothing to bind
			case TermVar:
				if prev, seen := rep[t.Var]; seen {
					prevAttr := repAttr[t.Var]
					if prevAttr.Type != a.Type {
						return nil, fmt.Errorf("calculus: line %d: variable %q used at %s and %s positions",
							r.Line, t.Var, prevAttr.Type, a.Type)
					}
					if a.Type == schema.String {
						eqConds = append(eqConds, cqa.StrEqAttr(prev, fresh))
					} else {
						eqConds = append(eqConds, cqa.AttrCmpAttr(prev, cqa.OpEq, fresh))
					}
				} else {
					rep[t.Var] = fresh
					repAttr[t.Var] = schema.Attribute{Name: fresh, Type: a.Type, Kind: a.Kind}
				}
			case TermStr:
				if a.Type != schema.String {
					return nil, fmt.Errorf("calculus: line %d: string constant at rational position %d of %s",
						r.Line, i+1, atom.Name)
				}
				constConds = append(constConds, cqa.StrEq(fresh, t.Str))
			case TermRat:
				if a.Type != schema.Rational {
					return nil, fmt.Errorf("calculus: line %d: rational constant at string position %d of %s",
						r.Line, i+1, atom.Name)
				}
				constConds = append(constConds, cqa.AttrCmpConst(fresh, cqa.OpEq, t.Rat))
			}
		}
	}

	// Comparison atoms over representatives.
	var compConds cqa.Condition
	for _, c := range r.Comps {
		if c.IsStr {
			lrep, ok := rep[c.Var]
			if !ok {
				return nil, fmt.Errorf("calculus: line %d: comparison uses unbound variable %q", r.Line, c.Var)
			}
			if repAttr[c.Var].Type != schema.String {
				return nil, fmt.Errorf("calculus: line %d: string comparison on rational variable %q", r.Line, c.Var)
			}
			if c.HasLit {
				compConds = append(compConds, cqa.StringAtom{Attr: lrep, Op: c.Op, Lit: c.StrLit, IsLit: true})
			} else {
				rrep, ok := rep[c.OtherVar]
				if !ok {
					return nil, fmt.Errorf("calculus: line %d: comparison uses unbound variable %q", r.Line, c.OtherVar)
				}
				compConds = append(compConds, cqa.StringAtom{Attr: lrep, Op: c.Op, OtherAttr: rrep})
			}
			continue
		}
		expr := cqaExprFromLinear(c, rep)
		if expr == nil {
			return nil, fmt.Errorf("calculus: line %d: comparison uses unbound variable", r.Line)
		}
		compConds = append(compConds, cqa.LinearAtom{Expr: *expr, Op: c.Op})
	}

	cond := append(append(append(cqa.Condition{}, constConds...), eqConds...), compConds...)
	if len(cond) > 0 {
		plan = cqa.NewSelect(plan, cond)
	}

	// Project onto the head variables' representatives, then rename to the
	// head variable names.
	var cols []string
	for _, v := range r.HeadVars {
		fresh, ok := rep[v]
		if !ok {
			return nil, fmt.Errorf("calculus: line %d: head variable %q not bound by any relation atom (rule is not range-restricted)", r.Line, v)
		}
		cols = append(cols, fresh)
	}
	plan = cqa.NewProject(plan, cols...)
	for i, v := range r.HeadVars {
		plan = cqa.NewRename(plan, cols[i], v)
	}
	return plan, nil
}

func cqaExprFromLinear(c CompAtom, rep map[string]string) *constraint.Expr {
	e := constraint.Const(c.Const)
	for _, t := range c.Terms {
		fresh, ok := rep[t.Var]
		if !ok {
			return nil
		}
		e = e.Add(constraint.Var(fresh).Scale(t.Coef))
	}
	return &e
}

// Run evaluates the program: rules execute in order; rules with the same
// head name union; the final head's relation is returned.
func (p *Program) Run(env cqa.Env) (*relation.Relation, error) {
	return p.RunCtx(env, nil)
}

// RunCtx is Run under an execution context: the translated CQA plans fan
// their operator work out over ec's worker pool and record per-operator
// stats on ec. A nil ec is Run.
func (p *Program) RunCtx(env cqa.Env, ec *exec.Context) (*relation.Relation, error) {
	if len(p.Rules) == 0 {
		return nil, fmt.Errorf("calculus: empty program")
	}
	scratch := make(cqa.Env, len(env))
	for k, v := range env {
		scratch[k] = v
	}
	defined := map[string]bool{}
	for _, r := range p.Rules {
		// Deadline checkpoint between rules (see exec.Context.Ctx).
		if err := ec.Err(); err != nil {
			return nil, fmt.Errorf("calculus: line %d (%s): %w", r.Line, r.HeadName, err)
		}
		// Non-recursive check: the body must not mention the head (directly;
		// earlier heads are fine because they are already materialised).
		for _, atom := range r.Rels {
			if atom.Name == r.HeadName {
				return nil, fmt.Errorf("calculus: line %d: recursive rule %q is not supported", r.Line, r.HeadName)
			}
		}
		// One span per rule: translation (the calculus → algebra rewrite
		// step), optimisation and plan evaluation all happen under it, so
		// EXPLAIN shows which rule each plan subtree belongs to.
		sp := ec.BeginSpan("rule", r.HeadName)
		plan, err := r.Translate(scratch.Schemas())
		if err != nil {
			ec.EndSpan(sp)
			return nil, err
		}
		plan = cqa.Plan(plan, scratch)
		out, err := plan.EvalCtx(scratch, ec)
		if err != nil {
			ec.EndSpan(sp)
			return nil, fmt.Errorf("calculus: line %d: %w", r.Line, err)
		}
		if defined[r.HeadName] {
			merged, err := cqa.UnionCtx(ec, scratch[r.HeadName], out)
			if err != nil {
				ec.EndSpan(sp)
				return nil, fmt.Errorf("calculus: line %d: rules for %q have incompatible heads: %w", r.Line, r.HeadName, err)
			}
			scratch[r.HeadName] = merged
		} else {
			scratch[r.HeadName] = out
			defined[r.HeadName] = true
		}
		sp.Set("out", int64(scratch[r.HeadName].Len()))
		ec.EndSpan(sp)
	}
	last := p.Rules[len(p.Rules)-1].HeadName
	sp := ec.BeginSpan("normalize", "")
	norm := scratch[last].NormalizeWith(ec.SatFunc())
	sp.Set("out", int64(norm.Len()))
	ec.EndSpan(sp)
	return norm, nil
}

// String renders the program back to rule syntax.
func (p *Program) String() string {
	var b strings.Builder
	for _, r := range p.Rules {
		fmt.Fprintf(&b, "%s(%s) :- ", r.HeadName, strings.Join(r.HeadVars, ", "))
		var parts []string
		for _, a := range r.Rels {
			var ts []string
			for _, t := range a.Terms {
				switch t.Kind {
				case TermVar:
					ts = append(ts, t.Var)
				case TermAnon:
					ts = append(ts, "_")
				case TermStr:
					ts = append(ts, quoteStr(t.Str))
				default:
					ts = append(ts, t.Rat.String())
				}
			}
			parts = append(parts, fmt.Sprintf("%s(%s)", a.Name, strings.Join(ts, ", ")))
		}
		for _, c := range r.Comps {
			parts = append(parts, c.String())
		}
		b.WriteString(strings.Join(parts, ", "))
		b.WriteString(".\n")
	}
	return b.String()
}
