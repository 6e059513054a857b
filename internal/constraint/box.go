package constraint

import (
	"bytes"
	"slices"
)

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
// reported a box, whatever its atoms. An atom over two or more variables,
// or an = atom, answers no from the atoms alone, so the envelope's
// propagation pass is paid only by a caller that reads the intervals.
func (j Conjunction) IsBox() bool {
	if j.env == nil {
		return false
	}
	if j.env.knownBox {
		return true
	}
	for _, c := range j.cs {
		if c.Op == Eq || len(c.Expr.terms) > 1 {
			return false
		}
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
//
// A slot is a variable and a side; each box holds at most one atom per
// slot, in canonical order. The survivors of each side are a subsequence of
// that side, so Canon's order is a two-way merge of the two (boxOrder), and
// the result's atoms share one allocation with its memo boxes (newBox).
func BoxMerge(a, b Conjunction) (merged Conjunction, sat bool) {
	var few [8]Constraint // a's survivors, then b's
	atoms := few[:0]
	for _, c := range a.cs {
		if o := sameBound(b.cs, c); o == nil || !tighter(*o, c) {
			atoms = append(atoms, c)
		}
	}
	fromA := len(atoms)
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
	as, bs := atoms[:fromA], atoms[fromA:]
	blk, out := newBox(len(atoms))
	for len(as) > 0 && len(bs) > 0 {
		// The slots of as and bs are disjoint, so no two atoms tie.
		if boxOrder(as[0], bs[0]) < 0 {
			out, as = append(out, as[0]), as[1:]
		} else {
			out, bs = append(out, bs[0]), bs[1:]
		}
	}
	return blk.seal(append(append(out, as...), bs...)), true
}

// boxOrder orders two atoms of canonical boxes exactly as sortAtoms does —
// by operator, then by rendered expression, then tieOrder — rendering only
// their heads unless the variable names force more. A box atom renders as its head —
// "-v" for a lower bound of v, "v" for an upper one — followed by its
// constant part: nothing for 0, else " + k" or " - k". The first byte where
// two heads differ decides. When one head is a prefix of the other, the
// shorter one's constant part meets the longer head's next byte: an empty
// constant part ends the string, which sorts first, and a non-empty one
// starts with ' ', which decides against any byte but ' '. What is left —
// a name that continues another with a space, or equal heads (two bounds
// in one slot, or a lower bound of v against an upper bound of a variable
// named "-v") — is decided on the renderings, and two that render alike by
// tieOrder.
func boxOrder(a, b Constraint) int {
	if a.Op != b.Op {
		return int(a.Op) - int(b.Op)
	}
	var ka, kb [32]byte
	ha, hb := appendHead(ka[:0], a), appendHead(kb[:0], b)
	n := min(len(ha), len(hb))
	if c := bytes.Compare(ha[:n], hb[:n]); c != 0 {
		return c
	}
	switch {
	case len(ha) < len(hb) && a.Expr.c.Sign() == 0:
		return -1
	case len(hb) < len(ha) && b.Expr.c.Sign() == 0:
		return 1
	case len(ha) < len(hb) && hb[n] != ' ':
		return int(' ') - int(hb[n])
	case len(hb) < len(ha) && ha[n] != ' ':
		return int(ha[n]) - int(' ')
	}
	if c := bytes.Compare(a.Expr.appendTo(ha[:0]), b.Expr.appendTo(hb[:0])); c != 0 {
		return c
	}
	return tieOrder(a, b)
}

// appendHead appends the head of the box atom c to b: its variable, after
// a '-' for a lower bound.
func appendHead(b []byte, c Constraint) []byte {
	t := c.Expr.terms[0]
	if t.Coef.Sign() < 0 {
		b = append(b, '-')
	}
	return append(b, t.Var...)
}

// boxMemo is the memo boxes canonical would attach, flagged a known box.
// newBox allocates it in one block with the atoms' room, sized to a Go size
// class: 288 bytes with room for a box in two variables (four atoms), 176
// with room for one in one variable (two atoms: what a projection onto one
// variable keeps).
type boxMemo struct {
	env envBox
	aux auxBox
}

// newBox returns fresh memo boxes and an empty atom slice of capacity n for
// the known box they will seal, in one allocation when n atoms fit a
// block's room, else beside a slice of their own.
func newBox(n int) (*boxMemo, []Constraint) {
	var blk *boxMemo
	var room []Constraint
	switch {
	case n <= 2:
		b := new(struct {
			boxMemo
			room [2]Constraint
		})
		blk, room = &b.boxMemo, b.room[:0:n]
	case n <= 4:
		b := new(struct {
			boxMemo
			room [4]Constraint
		})
		blk, room = &b.boxMemo, b.room[:0:n]
	default:
		blk, room = new(boxMemo), make([]Constraint, 0, n)
	}
	blk.env.knownBox = true
	return blk, room
}

// seal flags atoms — canonical, a non-empty box, built in the slice newBox
// handed out — as a canonical conjunction with blk's memo boxes.
func (blk *boxMemo) seal(atoms []Constraint) Conjunction {
	return Conjunction{cs: atoms, canon: true, fp: fingerprintOf(atoms), env: &blk.env, aux: &blk.aux}
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
	blk, atoms := newBox(kept)
	for _, c := range j.cs {
		if !slices.Contains(vars, c.Expr.terms[0].Var) {
			atoms = append(atoms, c)
		}
	}
	return blk.seal(atoms)
}
