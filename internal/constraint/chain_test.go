package constraint

import (
	"testing"
)

// referenceStairStep and referencePiece are StairStep and Piece as they
// stood while the staircase carried canonical conjunctions.
type referenceStairStep[S any] func(parent S, prefix Conjunction, c Constraint, negs []Constraint) (neg [2]Verdict[S], pos Verdict[S])

type referencePiece[S any] struct {
	Con   Conjunction
	Scope S
}

// referenceSubtractAllScoped is SubtractAllScoped as it stood while it
// built every prefix and piece canonical by inserting one atom at a time
// into Canon(j), verbatim. It is the oracle the chain is held to, as
// referenceSimplify is for SimplifyWith.
func referenceSubtractAllScoped[S any](j Conjunction, ks []Conjunction, root S, step referenceStairStep[S]) []referencePiece[S] {
	work := []referencePiece[S]{{Con: j.Canon(), Scope: root}}
	for _, k := range ks {
		var next []referencePiece[S]
		cs := k.Constraints()
		for _, p := range work {
			prefix, scope := p.Con, p.Scope
			for i, c := range cs {
				negs := c.Complement()
				neg, pos := step(scope, prefix, c, negs)
				for n, a := range negs {
					if neg[n].Sat {
						next = append(next, referencePiece[S]{Con: prefix.insert(a), Scope: neg[n].Scope})
					}
				}
				if !pos.Sat || i == len(cs)-1 {
					// Unsatisfiable: p already entails ¬(remaining prefix), and
					// nothing further to subtract from. Last: p ∧ k is what is
					// subtracted.
					break
				}
				prefix, scope = prefix.insert(c), pos.Scope
			}
		}
		work = next
		if len(work) == 0 {
			return nil
		}
	}
	return work
}

// StaircaseTally counts what CheckStaircase met.
type StaircaseTally struct {
	Pieces int
	Read   int // pieces the planar rule decides, whose edge rules were compared
	Fast   int // of those, read off the chain without building its conjunction
	Built  int // of those, read off the built conjunction (a strict atom through a vertex, ...)
}

// CheckStaircase runs j − ks through SubtractAllScoped and through
// referenceSubtractAllScoped, every step decided from scratch on j ∧ the
// atoms accumulated on top of it, and fails unless the two emit the same
// pieces: as many, in the same order, each chain's Con the reference's
// piece atom for atom, canonical, with its fingerprint. Where the planar
// rule decides a piece, its edge lines are read off PlanarEdges of the
// reference's piece, and the chain's edge rule (Chain.IrredundantOnEdges)
// must return what Conjunction.irredundantOnEdges returns on that piece,
// flagged irredundant unless ForceIrrClear holds. The edge rules run
// before any piece is built: on every other piece with only the root of
// its chain built, on the rest with its parent built too.
func CheckStaircase(t testing.TB, j Conjunction, ks []Conjunction, tally *StaircaseTally) {
	t.Helper()
	step := func(parent []Constraint, atom Constraint) ([]Constraint, bool) {
		extras := append(parent[:len(parent):len(parent)], atom)
		return extras, j.With(extras...).IsSatisfiable()
	}
	got := SubtractAllScoped(j, ks, nil, AtomStep(func(parent []Constraint, _ *Chain, atom Constraint) ([]Constraint, bool) {
		return step(parent, atom)
	}))
	want := referenceSubtractAllScoped(j, ks, nil, func(parent []Constraint, _ Conjunction, c Constraint, negs []Constraint) (neg [2]Verdict[[]Constraint], pos Verdict[[]Constraint]) {
		for i, a := range negs {
			neg[i].Scope, neg[i].Sat = step(parent, a)
		}
		pos.Scope, pos.Sat = step(parent, c)
		return neg, pos
	})
	if len(got) != len(want) {
		t.Fatalf("%s minus %v: %d pieces, the reference %d", j, ks, len(got), len(want))
	}
	for i := range want {
		w := want[i].Con
		onEdge, ok := w.PlanarEdges()
		if !ok {
			continue
		}
		var lines []Constraint
		for k, c := range w.cs {
			if onEdge[k] {
				lines = append(lines, c)
			}
		}
		p := got[i].Chain
		if i%2 == 1 && p.up != nil {
			p.up.Con()
		}
		red, redOK := p.IrredundantOnEdges(lines)
		fast := p.con == nil
		ref, refOK := w.irredundantOnEdges(lines)
		if redOK != refOK || (refOK && (!equalAtoms(red.cs, ref.cs) || red.fp != ref.fp || !red.canon || red.env == nil)) {
			t.Fatalf("%s minus %v, piece %d %s: the chain's edge rule gives %s (%v), the built piece's %s (%v)", j, ks, i, w, red, redOK, ref, refOK)
		}
		if redOK && (red.irr != !forceIrrClear || ref.irr != !forceIrrClear) {
			t.Fatalf("piece %d %s: irredundant memo %v / %v with ForceIrrClear %v", i, w, red.irr, ref.irr, forceIrrClear)
		}
		tally.Read++
		if fast {
			tally.Fast++
		} else {
			tally.Built++
		}
	}
	for i := range want {
		g, w := got[i].Chain.Con(), want[i].Con
		if !g.canon || !equalAtoms(g.cs, w.cs) || g.fp != w.fp {
			t.Fatalf("%s minus %v, piece %d: the chain builds %s, the reference %s", j, ks, i, g, w)
		}
	}
	tally.Pieces += len(want)
}
