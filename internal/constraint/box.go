package constraint

import "slices"

// This file is the interval kernel for conjunctions that are their own
// envelope. A box — every atom a single-variable < or <= — is decided,
// intersected and projected on its per-variable intervals: no variable is
// eliminated, nothing is clipped and nothing is re-canonicalised. Whether a
// canonical conjunction is a non-empty box is memoised with its envelope
// (envBox), and the two constructors here hand the fact on for free.
//
// An = atom is not folded by Canon against an inequality, and a closed
// point interval stays two atoms, so a conjunction with an = atom is simply
// not a box here.

// IsBox reports whether j is canonical and a non-empty box: every atom
// bounds a single variable by < or <=, and every variable's interval is
// non-empty. True() is one; False() is not (its atom has no variable). A
// box is satisfiable, equals its Envelope, and has no redundant atom. The
// answer is part of the canonical memo, computed with the envelope; a
// conjunction that is not flagged canonical has no memo and is never
// reported a box, whatever its atoms.
func (j Conjunction) IsBox() bool {
	if j.env == nil {
		return false
	}
	if j.env.knownBox {
		return true
	}
	j.Envelope()
	return j.env.box
}

// BoxMerge returns a ∧ b for two non-empty boxes (IsBox), and whether it
// is satisfiable (merged is meaningless otherwise). The result is
// a.Merge(b).Canon() atom for atom — of two bounds on the same side of a
// variable the tighter survives, exactly as Canon's fold decides it, and
// the survivors are put in Canon's order — and it is known to be a
// non-empty box. It is satisfiable when every variable's surviving lower
// and upper bound leave an interval, which is Interval.Intersects on the
// two envelopes, read off the atoms.
func BoxMerge(a, b Conjunction) (merged Conjunction, sat bool) {
	var few [8]Constraint // the survivors, until their number is known
	atoms := few[:0]
	for _, c := range a.cs {
		if o := sameBound(b.cs, c); o == nil || !tighter(*o, c) {
			atoms = append(atoms, c)
		}
	}
	for _, c := range b.cs {
		if o := sameBound(a.cs, c); o == nil || tighter(c, *o) {
			atoms = append(atoms, c)
		}
	}
	// Canonical bounds are -v + l OP 0 (v above l) and v + u OP 0 (v below
	// -u): the interval is empty when l + u > 0, or = 0 with a strict side.
	for _, lo := range atoms {
		t := lo.Expr.terms[0]
		if t.Coef.Sign() > 0 {
			continue
		}
		for _, up := range atoms {
			if u := up.Expr.terms[0]; u.Var != t.Var || u.Coef.Sign() < 0 {
				continue
			}
			if s := lo.Expr.c.Add(up.Expr.c).Sign(); s > 0 || (s == 0 && (lo.Op == Lt || up.Op == Lt)) {
				return Conjunction{}, false
			}
		}
	}
	if len(atoms) == 0 {
		return True(), true
	}
	return canonical(slices.Clone(sortAtoms(atoms)), true), true
}

// sameBound finds the atom of the canonical box cs that bounds the same
// variable from the same side as c, nil when there is none.
func sameBound(cs []Constraint, c Constraint) *Constraint {
	t := c.Expr.terms[0]
	for i := range cs {
		if o := cs[i].Expr.terms[0]; o.Var == t.Var && o.Coef.Sign() == t.Coef.Sign() {
			return &cs[i]
		}
	}
	return nil
}

// tighter reports whether c is strictly tighter than o, a bound on the same
// side of the same variable: Canon's fold rule (foldParallel) — the larger
// constant, and at equal constants < over <=.
func tighter(c, o Constraint) bool {
	cmp := c.Expr.c.Cmp(o.Expr.c)
	return cmp > 0 || (cmp == 0 && c.Op == Lt && o.Op == Le)
}

// dropVars is Eliminate(vars...).Canon() for a canonical non-empty box:
// the bounds of the other variables, which are canonical as they stand
// and again a non-empty box. (Every lower × upper combination Fourier-
// Motzkin would form is trivially true, because no interval is empty.)
func (j Conjunction) dropVars(vars []string) Conjunction {
	kept := 0
	for _, c := range j.cs {
		if !slices.Contains(vars, c.Expr.terms[0].Var) {
			kept++
		}
	}
	if kept == len(j.cs) {
		return j
	}
	atoms := make([]Constraint, 0, kept)
	for _, c := range j.cs {
		if !slices.Contains(vars, c.Expr.terms[0].Var) {
			atoms = append(atoms, c)
		}
	}
	return canonical(atoms, true)
}
