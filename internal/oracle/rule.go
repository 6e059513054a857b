package oracle

// The rule mode of the differential harness: random safe conjunctive rules
// (package calculus) over two random relations R1 and R2, specified
// pointwise and independently of how the engine translates them.
//
//	p ∈ q(h̄) :- A₁, …, Aₙ, C₁, …, Cₘ   iff   some choice of one tuple per
//	body atom (a) passes each atom's constants and repeated variables,
//	(b) agrees on every shared relational position — identical bindings,
//	NULL identical to NULL, as the Join spec has it; within one atom a
//	repeated variable is an equality selection, which NULL never passes —
//	(c) gives the head's relational variables p's values, and (d) leaves
//	the conjoined constraint parts, written over variable names, together
//	with the comparisons and with the head's constraint variables pinned
//	to p's coordinates, satisfiable (naiveSat; existential over the rest).
//
// The relations the generators draw keep strings relational and rationals
// constraint, so a variable's type decides its kind and the one case the
// translation treats specially (a variable at both kinds of position) does
// not arise here; internal/calculus tests it directly.

import (
	"fmt"
	"math/rand"

	"cdb/internal/calculus"
	"cdb/internal/constraint"
	"cdb/internal/cqa"
	"cdb/internal/rational"
	"cdb/internal/relation"
	"cdb/internal/schema"
)

// ruleRels names the two inputs of a rule case.
func ruleRels(r1, r2 *relation.Relation) map[string]*relation.Relation {
	return map[string]*relation.Relation{"R1": r1, "R2": r2}
}

// atomOver writes tuple t of body atom i's relation over the rule's
// variable names: the constraint part with every attribute replaced by what
// its position holds (a variable, a constant, or a fresh existential name
// for "_" and for a repeat, which adds its own equality), and the string
// variables' values in strs. ok is false when the atom rejects t.
func atomOver(i int, atom calculus.RelAtom, s schema.Schema, t relation.Tuple, strs map[string]relation.Value) (sys []constraint.Constraint, ok bool) {
	at := map[string]constraint.Expr{} // constraint attribute → its expression over variable names
	inAtom := map[string]bool{}
	for j, term := range atom.Terms {
		a := s.Attrs()[j]
		if a.Kind == schema.Relational {
			val, _ := t.RVal(a.Name) // NULL when unbound
			switch term.Kind {
			case calculus.TermStr:
				if !val.Equal(relation.Str(term.Str)) {
					return nil, false
				}
			case calculus.TermVar:
				prev, seen := strs[term.Var]
				switch {
				case inAtom[term.Var] && (val.IsNull() || !val.Equal(prev)):
					return nil, false
				case seen && !val.Identical(prev):
					return nil, false
				}
				strs[term.Var], inAtom[term.Var] = val, true
			}
			continue
		}
		fresh := constraint.Var(fmt.Sprintf("#%d.%d", i, j))
		switch term.Kind {
		case calculus.TermRat:
			at[a.Name] = constraint.Const(term.Rat)
		case calculus.TermVar:
			if inAtom[term.Var] {
				sys = append(sys, constraint.Constraint{Expr: fresh.Sub(constraint.Var(term.Var)), Op: constraint.Eq})
				at[a.Name] = fresh
			} else {
				at[a.Name], inAtom[term.Var] = constraint.Var(term.Var), true
			}
		default:
			at[a.Name] = fresh
		}
	}
	for _, c := range t.Constraint().Constraints() {
		e := constraint.Const(c.Expr.ConstTerm())
		for _, term := range c.Expr.Terms() {
			e = e.Add(at[term.Var].Scale(term.Coef))
		}
		sys = append(sys, constraint.Constraint{Expr: e, Op: c.Op})
	}
	return sys, true
}

// ruleHolds is the specification above: membership of head point p in the
// answer of r over rels. The choice is built one body atom at a time, so a
// tuple its atom rejects, or one that disagrees with the head's or an
// earlier atom's relational values, ends that branch at once.
func ruleHolds(r calculus.Rule, rels map[string]*relation.Relation, p relation.Point) bool {
	head := map[string]relation.Value{} // (c): the head's relational variables carry p's values
	for _, v := range r.HeadVars {
		if _, isRat := p[v].AsRat(); !isRat {
			head[v] = p[v]
		}
	}
	var try func(i int, strs map[string]relation.Value, sys []constraint.Constraint) bool
	try = func(i int, strs map[string]relation.Value, sys []constraint.Constraint) bool {
		if i == len(r.Rels) {
			return compsHold(r, strs, sys, p)
		}
		atom := r.Rels[i]
		for _, t := range rels[atom.Name].Tuples() {
			next := make(map[string]relation.Value, len(strs))
			for k, v := range strs {
				next[k] = v
			}
			if part, ok := atomOver(i, atom, rels[atom.Name].Schema(), t, next); ok &&
				try(i+1, next, append(sys[:len(sys):len(sys)], part...)) {
				return true
			}
		}
		return false
	}
	return try(0, head, nil)
}

// compsHold finishes one choice of tuples — strs and sys are what atomOver
// made of them — with the comparisons and the head's constraint variables.
func compsHold(r calculus.Rule, strs map[string]relation.Value, sys []constraint.Constraint, p relation.Point) bool {
	// Comparisons: string ones are tests on strs (NULL passes none);
	// rational ones join the system, != as its two strict halves.
	halves := [][]constraint.Constraint{nil}
	for _, c := range r.Comps {
		if c.IsStr || isStrVar(strs, c) {
			a, b := strs[c.Var], relation.Str(c.StrLit)
			if !c.IsStr {
				ts := c.Expr.Terms()
				a, b = strs[ts[0].Var], strs[ts[1].Var]
			}
			if a.IsNull() || b.IsNull() || a.Equal(b) != (c.Op == cqa.OpEq) {
				return false
			}
			continue
		}
		e := c.Expr
		switch c.Op {
		case cqa.OpEq:
			sys = append(sys, constraint.Constraint{Expr: e, Op: constraint.Eq})
		case cqa.OpLe:
			sys = append(sys, constraint.Constraint{Expr: e, Op: constraint.Le})
		case cqa.OpLt:
			sys = append(sys, constraint.Constraint{Expr: e, Op: constraint.Lt})
		case cqa.OpGe:
			sys = append(sys, constraint.Constraint{Expr: e.Neg(), Op: constraint.Le})
		case cqa.OpGt:
			sys = append(sys, constraint.Constraint{Expr: e.Neg(), Op: constraint.Lt})
		case cqa.OpNe:
			var split [][]constraint.Constraint
			for _, h := range halves {
				split = append(split,
					append(h[:len(h):len(h)], constraint.Constraint{Expr: e, Op: constraint.Lt}),
					append(h[:len(h):len(h)], constraint.Constraint{Expr: e.Neg(), Op: constraint.Lt}))
			}
			halves = split
		}
	}
	for _, v := range r.HeadVars {
		if k, isRat := p[v].AsRat(); isRat {
			sys = append(sys, constraint.Constraint{Expr: constraint.Var(v).AddConst(k.Neg()), Op: constraint.Eq})
		}
	}
	for _, h := range halves {
		if naiveSat(append(sys[:len(sys):len(sys)], h...)) {
			return true
		}
	}
	return false
}

// isStrVar reports whether linear-form comparison c is over string
// variables (the rule parser cannot tell `a != b` over strings from one
// over rationals; the types can).
func isStrVar(strs map[string]relation.Value, c calculus.CompAtom) bool {
	ts := c.Expr.Terms()
	if len(ts) == 0 {
		return false
	}
	_, ok := strs[ts[0].Var]
	return ok
}

// ruleVarPools are the variable names randomRule draws from, per type. They
// contain the generators' attribute names, so atoms that permute a
// relation's own names (R(y, x)) come up, and are small, so variables are
// shared across atoms and repeated within one.
var ruleVarPools = map[schema.Type][]string{
	schema.String:   {"id", "tag", "s"},
	schema.Rational: {"x", "y", "z", "w"},
}

// randomRule draws a safe rule over R1 (schema s1) and R2 (schema s2): 1-3
// body atoms with shared, repeated, anonymous and constant terms, one atom
// in four a permutation of its relation's own attribute names; 0-2
// comparison atoms over the bound variables (every operator, variable to
// constant and variable to variable, string variables included); a head
// that keeps a random non-empty subset of the bound variables.
func randomRule(rng *rand.Rand, s1, s2 schema.Schema) calculus.Rule {
	schemas := map[string]schema.Schema{"R1": s1, "R2": s2}
	strPool := []string{"a", "b", "c", "zz"}
	for {
		r := calculus.Rule{HeadName: "q", Line: 1}
		types := map[string]schema.Type{}
		var vars []string // bound variables in order of first occurrence
		bind := func(v string, ty schema.Type) calculus.Term {
			if _, seen := types[v]; !seen {
				types[v] = ty
				vars = append(vars, v)
			}
			return calculus.Term{Kind: calculus.TermVar, Var: v}
		}
		for n := 1 + rng.Intn(3); len(r.Rels) < n; {
			atom := calculus.RelAtom{Name: []string{"R1", "R2"}[rng.Intn(2)]}
			attrs := schemas[atom.Name].Attrs()
			if rng.Intn(4) == 0 {
				// The relation's own attribute names, shuffled within each type.
				perm, used := rng.Perm(len(attrs)), map[int]bool{}
				for _, a := range attrs {
					for _, k := range perm {
						if !used[k] && attrs[k].Type == a.Type {
							used[k] = true
							atom.Terms = append(atom.Terms, bind(attrs[k].Name, a.Type))
							break
						}
					}
				}
				r.Rels = append(r.Rels, atom)
				continue
			}
			for _, a := range attrs {
				pool := ruleVarPools[a.Type]
				switch k := rng.Intn(8); {
				case k == 0:
					atom.Terms = append(atom.Terms, calculus.Term{Kind: calculus.TermAnon})
				case k == 1 && a.Type == schema.String:
					atom.Terms = append(atom.Terms, calculus.Term{Kind: calculus.TermStr, Str: strPool[rng.Intn(len(strPool))]})
				case k == 1:
					atom.Terms = append(atom.Terms, calculus.Term{Kind: calculus.TermRat, Rat: rational.FromInt(int64(rng.Intn(9) - 4))})
				default:
					atom.Terms = append(atom.Terms, bind(pool[rng.Intn(len(pool))], a.Type))
				}
			}
			r.Rels = append(r.Rels, atom)
		}
		if len(vars) == 0 {
			continue // nothing for a head to keep: draw again
		}
		ops := []cqa.CompOp{cqa.OpEq, cqa.OpNe, cqa.OpLt, cqa.OpLe, cqa.OpGt, cqa.OpGe}
		for n := rng.Intn(3); len(r.Comps) < n; {
			v := vars[rng.Intn(len(vars))]
			w := vars[rng.Intn(len(vars))]
			varToVar := calculus.CompAtom{Expr: constraint.Var(v).Sub(constraint.Var(w))}
			switch {
			case types[v] == schema.String && types[w] == schema.String && v != w && rng.Intn(2) == 0:
				varToVar.Op = ops[rng.Intn(2)]
				r.Comps = append(r.Comps, varToVar)
			case types[v] == schema.String:
				r.Comps = append(r.Comps, calculus.CompAtom{IsStr: true, Var: v, Op: ops[rng.Intn(2)], StrLit: strPool[rng.Intn(len(strPool))]})
			case types[w] == schema.Rational && v != w && rng.Intn(3) == 0:
				varToVar.Op = ops[rng.Intn(len(ops))]
				r.Comps = append(r.Comps, varToVar)
			default:
				r.Comps = append(r.Comps, calculus.CompAtom{
					Expr: constraint.Var(v).Scale(rational.FromInt(int64(1 + rng.Intn(2)))).AddConst(rational.FromInt(int64(rng.Intn(17) - 8))),
					Op:   ops[rng.Intn(len(ops))]})
			}
		}
		for len(r.HeadVars) == 0 {
			for _, v := range vars {
				if rng.Intn(2) == 0 {
					r.HeadVars = append(r.HeadVars, v)
				}
			}
		}
		return r
	}
}

// ruleWitnesses builds the witness set of a rule case over the head's
// schema: the candidate pools are fed every tuple of every body atom
// written over variable names (atomOver) and the comparisons' boundaries
// and literals, so the probes sit where the answer's corners can be.
func ruleWitnesses(rng *rand.Rand, r calculus.Rule, rels map[string]*relation.Relation, opts WitnessOptions) []relation.Point {
	extra := Extra{Strings: map[string][]string{}}
	types := map[string]schema.Attribute{}
	for i, atom := range r.Rels {
		s := rels[atom.Name].Schema()
		for j, term := range atom.Terms {
			if term.Kind == calculus.TermVar {
				a := s.Attrs()[j]
				a.Name = term.Var
				types[term.Var] = a
			}
		}
		for _, t := range rels[atom.Name].Tuples() {
			strs := map[string]relation.Value{}
			sys, _ := atomOver(i, atom, s, t, strs)
			extra.Atoms = append(extra.Atoms, sys...)
			for v, val := range strs {
				if str, ok := val.AsString(); ok {
					extra.Strings[v] = append(extra.Strings[v], str)
				}
			}
		}
	}
	for _, c := range r.Comps {
		if c.IsStr {
			extra.Strings[c.Var] = append(extra.Strings[c.Var], c.StrLit)
			continue
		}
		e := constraint.Const(c.Expr.ConstTerm())
		for _, t := range c.Expr.Terms() {
			if types[t.Var].Type == schema.Rational {
				e = e.Add(constraint.Var(t.Var).Scale(t.Coef))
			}
		}
		extra.Atoms = append(extra.Atoms, constraint.Constraint{Expr: e, Op: constraint.Le})
	}
	head := make([]schema.Attribute, len(r.HeadVars))
	for i, v := range r.HeadVars {
		head[i] = types[v]
	}
	return Witnesses(rng, schema.MustNew(head...), opts, extra)
}
