package constraint

import "cdb/internal/rational"

// This file implements complementation of conjunctions into disjunctive
// normal form. It is the engine behind CQA's difference operator: the
// constraint part of a tuple difference t1 - t2 is  φ(t1) ∧ ¬φ(t2), which
// expands into a finite union of constraint tuples (the closure principle:
// the output is again representable in the input's constraint class).

// Disjunction is a finite disjunction of conjunctions (DNF). The empty
// disjunction denotes "false".
type Disjunction []Conjunction

// SubtractLazy is SubtractAll(j, []Conjunction{k}) without the eager
// per-disjunct satisfiability pruning: every step answers satisfiable, so
// the result may contain unsatisfiable disjuncts that downstream consumers
// must filter. It exists only for the DESIGN.md ablation benchmark;
// production paths always prune eagerly.
func SubtractLazy(j, k Conjunction) Disjunction {
	return disjuncts(SubtractAllScoped(j, []Conjunction{k}, struct{}{},
		AtomStep(func(struct{}, *Chain, Constraint) (struct{}, bool) { return struct{}{}, true })))
}

// SubtractAll returns j minus every conjunction in ks. The result is a
// disjunction of satisfiable canonical conjunctions covering exactly the
// assignments in j and in none of the ks; it is empty when j is
// unsatisfiable and ks is not.
func SubtractAll(j Conjunction, ks []Conjunction) Disjunction {
	return disjuncts(SubtractAllScoped(j, ks, struct{}{}, fmStep))
}

// disjuncts is the disjunction of the staircase's pieces, each
// materialised with memo boxes.
func disjuncts[S any](pieces []Piece[S]) Disjunction {
	if len(pieces) == 0 {
		return nil
	}
	out := make(Disjunction, len(pieces))
	for i, p := range pieces {
		out[i] = p.Chain.Con().withMemo()
	}
	return out
}

// fmStep is the scope-free staircase step: every decision runs the raw
// eliminator on the conjunction itself.
var fmStep = AtomStep(func(_ struct{}, prefix *Chain, atom Constraint) (struct{}, bool) {
	return struct{}{}, prefix.Con().With(atom).IsSatisfiable()
})

// Verdict is a staircase step's answer for one atom: the child's state and
// whether prefix ∧ atom is satisfiable.
type Verdict[S any] struct {
	Scope S
	Sat   bool
}

// StairStep decides one subtrahend atom c of the staircase together with
// the atoms of its complement, negs (c.Complement(): one atom, two for an
// equality), all against one parent state: neg[i] answers prefix ∧
// negs[i] and pos answers prefix ∧ c.
type StairStep[S any] func(parent S, prefix *Chain, c Constraint, negs []Constraint) (neg [2]Verdict[S], pos Verdict[S])

// AtomStep is the StairStep that decides the atoms one at a time with
// step, the negations first.
func AtomStep[S any](step func(parent S, prefix *Chain, atom Constraint) (S, bool)) StairStep[S] {
	return func(parent S, prefix *Chain, c Constraint, negs []Constraint) (neg [2]Verdict[S], pos Verdict[S]) {
		for i, a := range negs {
			neg[i].Scope, neg[i].Sat = step(parent, prefix, a)
		}
		pos.Scope, pos.Sat = step(parent, prefix, c)
		return neg, pos
	}
}

// SubtractAllScoped is the difference staircase, j minus every conjunction
// in ks. For k = c1 ∧ c2 ∧ ... ∧ cn it expands each piece p of the work
// list into
//
//	p ∧ ¬c1  ∨  p ∧ c1 ∧ ¬c2  ∨  p ∧ c1 ∧ c2 ∧ ¬c3  ∨ ...
//
// with each ¬ci itself a disjunction of at most two atomic constraints
// (two for equalities), which keeps the disjuncts pairwise disjoint, and
// drops every disjunct step proves unsatisfiable.
//
// The staircase only ever decides "prefix ∧ atom", where prefix is j
// extended by the atoms accumulated so far (negations emitted into a
// piece, plus the prefix atoms of subtrahends already walked). step is
// called once per atom ci walked, with the scope state S its parent
// decision returned — root for j itself, which the caller knows to be
// satisfiable — together with prefix, ci and ¬ci's atoms, and returns the
// child's state and whether prefix ∧ atom is satisfiable for each of them.
// The vector fast path keeps j's polygon clipped by the accumulated atoms
// as its state, so the decisions at any depth are one pass over the
// parent's ring; prefix is there for the step that has to fall back on the
// full conjunction. A piece is decided once, when it is emitted, and
// carried into the next subtrahend with its state. An unsatisfiable j
// therefore emits nothing (every step extends it), and empty ks returns
// {Canon(j)}.
//
// Each piece is returned with the state its last decision gave it, so a
// caller whose state is the piece's region can read the piece off it.
//
// A prefix is a Chain: Canon(j) at its root and one node per atom pushed on
// it, so extending a prefix costs one node and builds no conjunction. Its
// conjunction, canonical, is built only when someone asks for it
// (Chain.Con): a step that falls back on the full conjunction, or a caller
// that emits a piece whole. A caller that can read a piece's irredundant
// atoms off its region asks for nothing (Chain.IrredundantOnEdges). The
// nodes of one call come from one slab and belong to the goroutine that
// made the call.
func SubtractAllScoped[S any](j Conjunction, ks []Conjunction, root S, step StairStep[S]) []Piece[S] {
	var slab chainSlab
	work := []Piece[S]{{Chain: rootChain(j.Canon()), Scope: root}}
	for _, k := range ks {
		var next []Piece[S]
		cs := k.Constraints()
		comps := make([][]Constraint, len(cs)) // once for every piece; chains point into it
		for i, c := range cs {
			comps[i] = c.Complement()
		}
		for _, p := range work {
			prefix, scope := p.Chain, p.Scope
			for i, c := range cs {
				negs := comps[i]
				neg, pos := step(scope, prefix, c, negs)
				for n := range negs {
					if neg[n].Sat {
						next = append(next, Piece[S]{Chain: slab.push(prefix, &negs[n]), Scope: neg[n].Scope})
					}
				}
				if !pos.Sat || i == len(cs)-1 {
					// Unsatisfiable: p already entails ¬(remaining prefix), and
					// nothing further to subtract from. Last: p ∧ k is what is
					// subtracted.
					break
				}
				prefix, scope = slab.push(prefix, &cs[i]), pos.Scope
			}
		}
		work = next
		if len(work) == 0 {
			return nil
		}
	}
	return work
}

// Piece is one disjunct of the staircase with its step state.
type Piece[S any] struct {
	Chain *Chain
	Scope S
}

// Chain is one node of a staircase prefix: the canonical conjunction at the
// root of its chain with the atoms of every node on the way down pushed on
// top, in order. A node is never changed once it has children, so siblings
// share their parent.
type Chain struct {
	up   *Chain
	atom *Constraint  // the atom pushed: a subtrahend's or its complement's; nil at the root
	con  *Conjunction // Con, once built
}

// Con returns the chain's conjunction: the root's with every pushed atom
// inserted, canonical (insert). It is built once per node, from the
// parent's.
func (p *Chain) Con() Conjunction {
	if p.con == nil {
		con := p.up.Con().insert(*p.atom)
		p.con = &con
	}
	return *p.con
}

// Pushed yields the atoms pushed on p's chain, newest first.
func (p *Chain) Pushed(yield func(Constraint) bool) {
	for q := p; q.atom != nil && yield(*q.atom); q = q.up {
	}
}

// rootChain returns the root of a chain over the canonical j, in one
// allocation with its conjunction.
func rootChain(j Conjunction) *Chain {
	r := &struct {
		node Chain
		con  Conjunction
	}{con: j}
	r.node.con = &r.con
	return &r.node
}

// chainSlab hands out the nodes of one staircase's chains from a few
// growing chunks, so a push costs no allocation of its own. A chunk is never
// appended to past its capacity, so a node's address stays put.
type chainSlab struct {
	chunk []Chain
}

// push returns a new node that pushes atom on up.
func (s *chainSlab) push(up *Chain, atom *Constraint) *Chain {
	if len(s.chunk) == cap(s.chunk) {
		s.chunk = make([]Chain, 0, max(16, 2*cap(s.chunk)))
	}
	s.chunk = append(s.chunk, Chain{up: up, atom: atom})
	return &s.chunk[len(s.chunk)-1]
}

// Holds evaluates the disjunction under the assignment: true if any
// disjunct holds.
func (d Disjunction) Holds(assign map[string]rational.Rat) (bool, error) {
	for _, j := range d {
		ok, err := j.Holds(assign)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}
