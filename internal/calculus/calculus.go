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

// CompAtom is a comparison over variables: a linear comparison (parsed into
// coefficient form) or a variable against a string literal. `a != b` is
// linear whatever a and b range over: Translate knows their types, not Parse.
type CompAtom struct {
	// Linear form: sum of (Coef, Var) plus Const, OP 0.
	Terms []LinTerm
	Const rational.Rat
	Op    cqa.CompOp
	// String form (used when IsStr): Var op StrLit.
	IsStr  bool
	Var    string
	StrLit string
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
		return fmt.Sprintf("%s %s %s", a.Var, a.Op, quoteStr(a.StrLit))
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

// Translate compiles one rule against the given schema environment: a rule
// is a natural join. Shared variables become shared attribute names, so the
// algebra's own join — partition buckets, envelope filter, pair cache,
// chain reordering — does the equating, and nothing here restates it.
//
// Body atom i becomes prep[i] = rename(select(scan)). The selection holds
// the atom's constants, its repeated-variable equalities and the
// comparisons over variables no other atom binds, on the atom's own
// attribute names; the rename maps attributes towards their variable names
// in one simultaneous step (Land(y, x, id) permutes). A position with no
// joinable variable — anonymous, constant, repeated, or a variable met again
// at the other kind of position, which natural join cannot equate and an =
// in rest does — gets a throwaway name. join chains the prepared atoms as
// scans of their AtomName; rest, over variable names, holds the comparisons
// on variables several atoms bind, checked on the join and deliberately not
// below it (docs/ARCHITECTURE.md). The answer is π_head(ς_rest(join)).
func (r Rule) Translate(env cqa.SchemaEnv) (prep []cqa.Node, join cqa.Node, rest cqa.Condition, err error) {
	if len(r.Rels) == 0 {
		return nil, nil, nil, fmt.Errorf("rule body has no relation atoms")
	}
	bound := map[string]schema.Attribute{}      // variable → the attribute of its first occurrence
	home := map[string]int{}                    // variable → the one atom binding it, -1 when several do
	conds := make([]cqa.Condition, len(r.Rels)) // per atom: the selection under its rename
	names := make([]map[string]string, len(r.Rels))
	for i, atom := range r.Rels {
		s, ok := env[atom.Name]
		if atom.Name == r.HeadName { // earlier heads are fine: they are materialised by now
			return nil, nil, nil, fmt.Errorf("recursive rule %q is not supported", r.HeadName)
		} else if !ok {
			return nil, nil, nil, fmt.Errorf("unknown relation %q", atom.Name)
		} else if len(atom.Terms) != s.Len() {
			return nil, nil, nil, fmt.Errorf("%s has arity %d, atom has %d terms", atom.Name, s.Len(), len(atom.Terms))
		}
		own := map[string]string{} // variable → the attribute of its first occurrence in this atom
		names[i] = map[string]string{}
		for j, t := range atom.Terms {
			a := s.Attrs()[j]
			name := fmt.Sprintf("$a%dp%d", i, j)
			switch first, seen := bound[t.Var]; {
			case t.Kind == TermAnon:
			case t.Kind != TermVar && (t.Kind == TermStr) != (a.Type == schema.String):
				return nil, nil, nil, fmt.Errorf("constant at %s position %d of %s has the wrong type", a.Type, j+1, atom.Name)
			case t.Kind == TermStr:
				conds[i] = append(conds[i], cqa.StrEq(a.Name, t.Str))
			case t.Kind == TermRat:
				conds[i] = append(conds[i], cqa.AttrCmpConst(a.Name, cqa.OpEq, t.Rat))
			case seen && first.Type != a.Type:
				return nil, nil, nil, fmt.Errorf("variable %q used at %s and %s positions", t.Var, first.Type, a.Type)
			case own[t.Var] != "" && a.Type == schema.String:
				conds[i] = append(conds[i], cqa.StrEqAttr(own[t.Var], a.Name))
			case own[t.Var] != "":
				conds[i] = append(conds[i], cqa.AttrCmpAttr(own[t.Var], cqa.OpEq, a.Name))
			case !seen:
				bound[t.Var], home[t.Var], own[t.Var], name = a, i, a.Name, t.Var
			case first.Kind == a.Kind:
				home[t.Var], own[t.Var], name = -1, a.Name, t.Var
			default:
				home[t.Var], own[t.Var] = -1, a.Name
				rest = append(rest, cqa.AttrCmpAttr(t.Var, cqa.OpEq, name))
			}
			if name != a.Name {
				names[i][a.Name] = name
			}
		}
	}
	for _, c := range r.Comps {
		at, i, err := c.atom(bound, home)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("comparison %s: %w", c, err)
		}
		if i < 0 {
			rest = append(rest, at)
		} else {
			conds[i] = append(conds[i], at)
		}
	}
	for _, v := range r.HeadVars {
		if _, ok := bound[v]; !ok {
			return nil, nil, nil, fmt.Errorf("head variable %q not bound by any relation atom (rule is not range-restricted)", v)
		}
	}
	prep = make([]cqa.Node, len(r.Rels))
	for i, atom := range r.Rels {
		prep[i] = cqa.Scan(atom.Name)
		if len(conds[i]) > 0 {
			prep[i] = cqa.NewSelect(prep[i], conds[i])
		}
		if len(names[i]) > 0 {
			prep[i] = cqa.NewRename(prep[i], names[i])
		}
		if leaf := cqa.Scan(r.AtomName(i)); i == 0 {
			join = leaf
		} else {
			join = cqa.NewJoin(join, leaf)
		}
	}
	return prep, join, rest, nil
}

// AtomName names prepared body atom i: Land$0, Land$1 — no identifier has a $.
func (r Rule) AtomName(i int) string { return fmt.Sprintf("%s$%d", r.Rels[i].Name, i) }

// atom turns the comparison into a selection atom. When one body atom alone
// binds all its variables (home), i is that atom and the result is on its
// own attribute names (bound has them); otherwise i is -1 and the variable
// names stay. bound also has the types the parser lacked: a linear form
// over string variables must be v = w or v != w and becomes a string atom.
func (a CompAtom) atom(bound map[string]schema.Attribute, home map[string]int) (_ cqa.Atom, i int, _ error) {
	terms := a.Terms
	if a.IsStr {
		terms = []LinTerm{{Var: a.Var}}
	}
	i, strs := -1, 0
	for k, t := range terms {
		b, ok := bound[t.Var]
		if !ok {
			return nil, -1, fmt.Errorf("unbound variable %q", t.Var)
		}
		if b.Type == schema.String {
			strs++
		}
		if k == 0 {
			i = home[t.Var]
		} else if home[t.Var] != i {
			i = -1
		}
	}
	name := func(v string) string { return v }
	if i >= 0 {
		name = func(v string) string { return bound[v].Name }
	}
	switch {
	case a.IsStr && strs == 0:
		return nil, -1, fmt.Errorf("string comparison on rational variable %q", a.Var)
	case a.IsStr:
		return cqa.StringAtom{Attr: name(a.Var), Op: a.Op, Lit: a.StrLit, IsLit: true}, i, nil
	case strs == 0:
		e := constraint.Const(a.Const)
		for _, t := range terms {
			e = e.Add(constraint.Var(name(t.Var)).Scale(t.Coef))
		}
		return cqa.LinearAtom{Expr: e, Op: a.Op}, i, nil
	case strs != 2 || len(terms) != 2 || !a.Const.IsZero() || !terms[0].Coef.Add(terms[1].Coef).IsZero():
		return nil, -1, fmt.Errorf("string variables compare only as v = w or v != w")
	case a.Op != cqa.OpEq && a.Op != cqa.OpNe:
		return nil, -1, fmt.Errorf("operator %s not defined on strings", a.Op)
	}
	return cqa.StringAtom{Attr: name(terms[0].Var), Op: a.Op, OtherAttr: name(terms[1].Var)}, i, nil
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
		// One span per rule: translation (the calculus → algebra rewrite
		// step), optimisation and plan evaluation all happen under it, so
		// EXPLAIN shows which rule each plan subtree belongs to.
		sp := ec.BeginSpan("rule", r.HeadName)
		out, err := r.eval(scratch, ec)
		if err == nil && defined[r.HeadName] {
			if out, err = cqa.UnionCtx(ec, scratch[r.HeadName], out); err != nil {
				err = fmt.Errorf("rules for %q have incompatible heads: %w", r.HeadName, err)
			}
		}
		if err != nil {
			ec.EndSpan(sp)
			return nil, fmt.Errorf("calculus: line %d: %w", r.Line, err)
		}
		scratch[r.HeadName], defined[r.HeadName] = out, true
		sp.Set("rows", int64(out.Len()))
		ec.EndSpan(sp)
	}
	last := p.Rules[len(p.Rules)-1].HeadName
	sp := ec.BeginSpan("normalize", "")
	norm := scratch[last].NormalizeWith(ec.SatFunc())
	sp.Set("rows", int64(norm.Len()))
	ec.EndSpan(sp)
	return norm, nil
}

// eval runs the translated rule: the prepared atoms, bound under their
// AtomName; the join chain over them (each through cqa.Plan); ς_rest; π_head.
func (r Rule) eval(env cqa.Env, ec *exec.Context) (*relation.Relation, error) {
	prep, plan, rest, err := r.Translate(env.Schemas())
	atoms := make(cqa.Env, len(prep))
	for i := 0; err == nil && i < len(prep); i++ {
		atoms[r.AtomName(i)], err = cqa.Plan(prep[i], env).EvalCtx(env, ec)
	}
	if err != nil {
		return nil, err
	}
	plan = cqa.Plan(plan, atoms)
	if len(rest) > 0 {
		plan = cqa.NewSelect(plan, rest)
	}
	return cqa.NewProject(plan, r.HeadVars...).EvalCtx(atoms, ec)
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
