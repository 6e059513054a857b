package constraint

// Reference implementations for the render-once kernel (ISSUE 15): the
// string-keyed code that Canon, sweepRedundant and the renderers replaced,
// kept verbatim as test oracles. The benchmark's digest re-sorts tuple lines
// and the fingerprint is never printed, so nothing end-to-end would notice
// an ordering or folding slip here — these comparisons are what does.

import (
	"fmt"
	"sort"
	"strings"

	"cdb/internal/rational"
)

// lessConstraint is the stable total order of canonical atoms: by operator,
// then by rendered expression. Exact ties are identical atoms. Canon sorts
// on keys rendered once per atom; this comparator, which renders two
// expressions per call, is the definition it must agree with.
func lessConstraint(a, b Constraint) bool {
	if a.Op != b.Op {
		return a.Op < b.Op
	}
	return a.Expr.String() < b.Expr.String()
}

// LessConstraint exposes the reference order to the external fuzz targets.
var LessConstraint = lessConstraint

// referenceCanonFold is Canon's former pass 2: equalities deduplicated
// exactly, parallel inequalities folded in place of the group's first
// member, groups keyed by the rendered variable part.
func referenceCanonFold(atoms []Constraint) []Constraint {
	kept := make([]Constraint, 0, len(atoms))
	group := map[string]int{}
	for _, c := range atoms {
		varPart := Expr{terms: c.Expr.terms}
		if c.Op == Eq {
			key := "=|" + varPart.String() + "|" + c.Expr.c.Key()
			if _, dup := group[key]; dup {
				continue
			}
			group[key] = len(kept)
			kept = append(kept, c)
			continue
		}
		key := varPart.String()
		i, ok := group[key]
		if !ok {
			group[key] = len(kept)
			kept = append(kept, c)
			continue
		}
		prev := kept[i]
		pk, ck := prev.Expr.ConstTerm(), c.Expr.ConstTerm()
		if cmp := ck.Cmp(pk); cmp > 0 || (cmp == 0 && c.Op == Lt && prev.Op == Le) {
			kept[i] = c
		}
	}
	return kept
}

// referenceCanon is the former Canon end to end (atoms only): canonicalise,
// drop trivia, fold with referenceCanonFold, sort with the rendering
// comparator.
func referenceCanon(j Conjunction) []Constraint {
	atoms := make([]Constraint, 0, len(j.cs))
	for _, c := range j.cs {
		if triv, val := c.IsTrivial(); triv {
			if val {
				continue
			}
			return falseAtoms
		}
		atoms = append(atoms, c.Canonical())
	}
	kept := referenceCanonFold(atoms)
	sort.Slice(kept, func(a, b int) bool { return lessConstraint(kept[a], kept[b]) })
	return kept
}

// referenceSweep is the former sweepRedundant: inequalities grouped by the
// rendered canonical variable part, the tightest of each group kept at its
// own position, equalities untouched.
func referenceSweep(cs []Constraint) []Constraint {
	groups := map[string]int{}
	var out []Constraint
	keep := make([]bool, len(cs))
	for i, c := range cs {
		if c.Op == Eq {
			keep[i] = true
			continue
		}
		cc := c.Canonical()
		key := Expr{terms: cc.Expr.terms}.String()
		prev, ok := groups[key]
		if !ok {
			groups[key] = i
			keep[i] = true
			continue
		}
		p := cs[prev].Canonical()
		pc, nc := p.Expr.ConstTerm(), cc.Expr.ConstTerm()
		if nc.Cmp(pc) > 0 || (nc.Equal(pc) && cc.Op == Lt && p.Op == Le) {
			keep[prev] = false
			groups[key] = i
			keep[i] = true
		}
	}
	for i, c := range cs {
		if keep[i] {
			out = append(out, c)
		}
	}
	return out
}

// referenceFingerprint is the former fingerprintOf, fed by Rat.Key strings.
// Its values differ from the integer-fed one; only its equalities matter.
func referenceFingerprint(cs []Constraint) uint64 {
	h := uint64(fnvOffset64)
	field := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= fnvPrime64
		}
		h ^= 0xff
		h *= fnvPrime64
	}
	for _, c := range cs {
		h ^= uint64(c.Op) + 1
		h *= fnvPrime64
		for _, t := range c.Expr.Terms() {
			field(t.Var)
			field(t.Coef.Key())
		}
		field(c.Expr.ConstTerm().Key())
	}
	return h
}

// referenceExprString and referenceConstraintString are the former
// fmt/strings.Builder renderers.
func referenceExprString(e Expr) string {
	if len(e.terms) == 0 {
		return e.c.String()
	}
	var b strings.Builder
	for i, t := range e.terms {
		coef := t.Coef
		if i == 0 {
			if coef.Sign() < 0 {
				b.WriteString("-")
				coef = coef.Neg()
			}
		} else {
			if coef.Sign() < 0 {
				b.WriteString(" - ")
				coef = coef.Neg()
			} else {
				b.WriteString(" + ")
			}
		}
		if !coef.Equal(rational.One) {
			b.WriteString(coef.String())
		}
		b.WriteString(t.Var)
	}
	if !e.c.IsZero() {
		if e.c.Sign() < 0 {
			b.WriteString(" - ")
			b.WriteString(e.c.Neg().String())
		} else {
			b.WriteString(" + ")
			b.WriteString(e.c.String())
		}
	}
	return b.String()
}

func referenceConstraintString(c Constraint) string {
	lhs := Expr{terms: c.Expr.terms}
	rhs := c.Expr.c.Neg()
	if len(c.Expr.terms) == 0 {
		return fmt.Sprintf("%s %s 0", c.Expr.c, c.Op)
	}
	return fmt.Sprintf("%s %s %s", referenceExprString(lhs), c.Op, rhs)
}

func referenceConjunctionString(j Conjunction) string {
	if len(j.cs) == 0 {
		return "true"
	}
	parts := make([]string, len(j.cs))
	for i, c := range j.cs {
		parts[i] = referenceConstraintString(c)
	}
	return strings.Join(parts, ", ")
}

// referenceSimplify is SimplifyWith as it stood before the planar rule
// (ISSUE 16), verbatim: decide satisfiability, dedup on rendered keys, then
// drop each atom the rest entails, left to right. The planar rule must
// return the same atoms in the same order wherever it decides; the general
// path of SimplifyWith is this code minus the string pass on canonical
// input.
func referenceSimplify(j Conjunction, sat SatFunc) Conjunction {
	if !j.SatisfiableWith(sat) {
		return False()
	}
	// Cheap pass: canonical-key dedup.
	seen := map[string]bool{}
	uniq := make([]Constraint, 0, len(j.cs))
	for _, c := range j.cs {
		if triv, val := c.IsTrivial(); triv && val {
			continue
		}
		k := c.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		uniq = append(uniq, c)
	}
	// Expensive pass: drop constraints entailed by the rest.
	out := append([]Constraint{}, uniq...)
	for i := 0; i < len(out); {
		rest := Conjunction{cs: append(append([]Constraint{}, out[:i]...), out[i+1:]...)}
		if rest.EntailsWith(out[i], sat) {
			out = append(out[:i], out[i+1:]...)
		} else {
			i++
		}
	}
	return Conjunction{cs: out}
}

// ReferenceSimplify exposes the reference to the external test packages
// (the fuzz target here, the operator-output comparison in internal/cqa).
func ReferenceSimplify(j Conjunction) Conjunction { return referenceSimplify(j, nil) }
