package constraint

import "cdb/internal/rational"

// This file is the planar redundancy rule of SimplifyWith: a conjunction of
// inequalities over at most two variables is a convex polygon (possibly
// unbounded), and an atom is irredundant exactly when its boundary line
// carries an edge of it. Whether it does is a one-dimensional question —
// clip the line by every other atom's closed half-plane and look at the
// interval that is left — so no variable is eliminated and no
// satisfiability question is asked.
//
// Why the rule is exact (C is the closed relaxation of the whole
// conjunction):
//
//   - Edge ⇔ positive length. If atom i's line keeps an interval of positive
//     length and no other atom lies on that line, every other atom holds
//     strictly at an interior point m of the interval: points just inside m
//     are interior to the region (so it is full-dimensional, hence
//     satisfiable) and points just outside m satisfy everything but i (so
//     nothing entails i). The atoms that carry an edge describe C on their
//     own.
//   - No edge, closed or untouched. If the interval is empty, C lies
//     strictly inside atom i; if it is a single vertex v and i is <=, C lies
//     inside i. The edge atoms alone entail i either way.
//   - Strict vertex. If the interval is a single vertex v and i is <, C
//     minus v lies strictly inside i, so the others entail i iff one of
//     them excludes v — only a strict atom through v can.
//
// The greedy left-to-right removal of the general path never drops an edge
// atom, so when it reaches atom i the survivors still entail C and the
// only thing the order decides is which strict atoms through v are still
// there. simplifyPlanar replays exactly that and returns the same atoms.

// halfPlane is an atom over the conjunction's (at most) two variables u, v,
// scaled by a positive factor to su·u + b·v + c OP 0 with su = ±1, or, when
// it has no u, to b·v + c OP 0 with b = ±1 — the shape canonical atoms
// already have, and the one that keeps multiplications out of the clipping
// loop — with what the rule finds out about it.
type halfPlane struct {
	su     int
	b, c   rational.Rat
	strict bool

	kind    boundary
	x, y    rational.Rat // the point, when kind is vertex
	dropped bool
}

// boundary classifies what the other atoms leave of one atom's boundary
// line.
type boundary int

const (
	noContact boundary = iota // empty: the region does not reach the line
	vertex                    // a single point
	edge                      // an interval of positive length
)

// simplifyPlanar is the planar rule. It reports ok = false — deciding
// nothing — unless every atom is a non-trivial <= or < inequality, at most
// two variables occur, no two atoms the region touches share a boundary
// line, and at least one atom carries an edge; an = atom, a third variable
// and an empty or degenerate closure (segment, point, unsatisfiable only by
// strictness) all end there. The survivors are a subsequence of j's atoms,
// so a canonical j yields a canonical result, flagged as such.
func (j Conjunction) simplifyPlanar() (_ Conjunction, ok bool) {
	var stack [16]halfPlane
	hs, edges, ok := j.classify(stack[:0])
	if !ok {
		return Conjunction{}, false
	}
	return j.replay(hs, edges), true
}

// classify reads j's atoms as half-planes into hs and runs clipBoundary on
// each, counting the atoms that carry an edge; ok is simplifyPlanar's.
func (j Conjunction) classify(hs []halfPlane) (_ []halfPlane, edges int, ok bool) {
	hs, ok = halfPlanes(j.cs, hs)
	if !ok {
		return nil, 0, false
	}
	for i := range hs {
		if !clipBoundary(hs, i, false) {
			return nil, 0, false
		}
		if hs[i].kind == edge {
			edges++
		}
	}
	return hs, edges, edges > 0
}

// PlanarEdges reports which of j's atoms carry an edge of its region as
// the planar rule classifies them, and ok = false where the rule does not
// decide j. The edge rule (Chain.IrredundantOnEdges) takes the same facts
// from a drawn region instead; this is the classification it must agree
// with.
func (j Conjunction) PlanarEdges() (onEdge []bool, ok bool) {
	hs, _, ok := j.classify(nil)
	if !ok {
		return nil, false
	}
	onEdge = make([]bool, len(hs))
	for i := range hs {
		onEdge[i] = hs[i].kind == edge
	}
	return onEdge, true
}

// SimplifyPlanar returns what the planar rule of SimplifyWith leaves of a
// canonical j, and j itself when the rule does not decide it; either way
// the result carries memo boxes, and where the rule decides it is flagged
// irredundant, so SimplifyWith returns it as it is. It asks no
// satisfiability question. The difference operator emits the pieces its
// clipper could not read off a ring this way (see Chain.IrredundantOnEdges).
func (j Conjunction) SimplifyPlanar() Conjunction {
	if out, ok := j.simplifyPlanar(); ok {
		return out.irredundant()
	}
	return j.withMemo()
}

// irredundant returns the canonical j, which the planar rule has just left,
// with memo boxes and flagged irredundant (unless ForceIrrClear holds).
func (j Conjunction) irredundant() Conjunction {
	j = j.withMemo()
	j.irr = !forceIrrClear
	return j
}

// irredundantOnEdges is the planar rule with its classification read off
// a region already drawn: j is canonical and its region is bounded and
// full-dimensional, and lines holds, for each edge of the region's closure,
// one atom whose boundary line carries it (in either direction). The atoms
// are classified by onEdges, and the greedy replay decides which strict
// atoms through a vertex stay. The result is simplifyPlanar's, atom for
// atom, with memo boxes, flagged irredundant. ok is false — j then goes to
// SimplifyPlanar — when j is not such a conjunction after all: an atom the
// rule cannot read, or a strict atom sharing its line with another.
func (j Conjunction) irredundantOnEdges(lines []Constraint) (_ Conjunction, ok bool) {
	var stack [16]halfPlane
	hs, edges, _, ok := onEdges(j.cs, lines, stack[:0])
	if !ok {
		return Conjunction{}, false
	}
	return j.replay(hs, edges).irredundant(), true
}

// IrredundantOnEdges is p.Con().irredundantOnEdges(lines), read off the
// chain's atoms — the nearest built conjunction above p and the atoms pushed
// below it, made atom-canonical — without building Con. An atom on an edge
// line stays and any other goes, unless some strict atom off the edge lines
// touches the region at a vertex, where the replay's order decides; that
// case, an atom the rule cannot read and a region with no edge atom build
// Con and go to Conjunction.irredundantOnEdges. Two atoms of the chain on
// one edge line point the same way, since the region is full-dimensional,
// so they are one atom or its closed and strict versions: Canon's fold keeps
// one, the strict one if there is one, and so does this. The survivors are
// put in canonical order once.
func (p *Chain) IrredundantOnEdges(lines []Constraint) (_ Conjunction, ok bool) {
	var stack [24]Constraint
	atoms := p.atoms(stack[:0])
	var hsStack [24]halfPlane
	hs, edges, touched, ok := onEdges(atoms, lines, hsStack[:0])
	if !ok || touched {
		return p.Con().irredundantOnEdges(lines)
	}
	out := make([]Constraint, 0, edges)
next:
	for i, c := range atoms {
		if hs[i].kind != edge {
			continue
		}
		for k := range out {
			if o := &out[k]; o.Expr.c.Equal(c.Expr.c) && sameTerms(o.Expr.terms, c.Expr.terms) {
				if c.Op == Lt {
					o.Op = Lt
				}
				continue next
			}
		}
		out = append(out, c)
	}
	return canonical(sortAtoms(out)).irredundant(), true
}

// atoms appends the atoms of p's conjunction to buf, unfolded and unsorted:
// those of the nearest node above p whose conjunction is built, then the
// atoms pushed below it, each made atom-canonical.
func (p *Chain) atoms(buf []Constraint) []Constraint {
	n := p
	for n.con == nil {
		n = n.up
	}
	buf = append(buf, n.con.cs...)
	for q := p; q != n; q = q.up {
		buf = append(buf, q.atom.Canonical())
	}
	return buf
}

// onEdges classifies the canonical atoms cs of a bounded, full-dimensional
// region against lines, the boundary lines of its closure's edges (see
// irredundantOnEdges), into hs, in cs's order. An atom on one of the lines
// carries an edge; a closed atom on none carries none, so it is left
// unclassified (noContact) without being looked at; only a strict atom on
// none is classified by clipBoundary, against the edge atoms alone, for the
// vertex the greedy replay may keep it for — touched reports that one
// touches the region — and only then are the atoms read as half-planes.
// edges counts the atoms that carry an edge. ok is false on an equality, an
// atom without terms, a strict atom sharing its line with an edge atom, or
// when no atom carries an edge.
func onEdges(cs, lines []Constraint, hs []halfPlane) (_ []halfPlane, edges int, touched, ok bool) {
	var keyStack [16]rational.Rat
	keys := keyStack[:0]
	for k := range lines {
		keys = append(keys, lineConst(&lines[k]))
	}
	var onStack [24]bool
	on := onStack[:0]
	strictOff := false
	for i := range cs {
		c := &cs[i]
		if c.Op == Eq || len(c.Expr.terms) == 0 {
			return nil, 0, false, false
		}
		e := onAny(c, lines, keys)
		on = append(on, e)
		if e {
			edges++
		} else if c.Op == Lt {
			strictOff = true
		}
	}
	// clipBoundary reads the atoms as half-planes; without it the replay
	// reads only their kinds.
	switch {
	case strictOff:
		if hs, ok = halfPlanes(cs, hs); !ok {
			return nil, 0, false, false
		}
	case len(cs) <= cap(hs):
		hs = hs[:len(cs)]
		clear(hs)
	default:
		hs = make([]halfPlane, len(cs))
	}
	for i := range hs {
		if on[i] {
			hs[i].kind = edge
		}
	}
	for i := range hs {
		if h := &hs[i]; strictOff && !on[i] && h.strict {
			if !clipBoundary(hs, i, true) {
				return nil, 0, false, false
			}
			if h.kind != noContact {
				touched = true
			}
			if h.kind == edge {
				edges++
			}
		}
	}
	return hs, edges, touched, edges > 0
}

// replay is the greedy left-to-right removal of the general path on
// classified atoms, edges of which carry an edge: atom i goes unless it
// carries an edge or is a strict atom whose vertex every other atom still
// there admits.
func (j Conjunction) replay(hs []halfPlane, edges int) Conjunction {
	if edges == len(hs) {
		return j
	}
	out := make([]Constraint, 0, edges+1)
	for i := range hs {
		h := &hs[i]
		if h.kind == edge || (h.kind == vertex && h.strict && admitted(hs, i)) {
			out = append(out, j.cs[i])
		} else {
			h.dropped = true
		}
	}
	if !j.canon {
		return Conjunction{cs: out}
	}
	return canonical(out)
}

// onAny reports whether c's boundary line is that of one of lines, whose
// lineConsts are keys.
func onAny(c *Constraint, lines []Constraint, keys []rational.Rat) bool {
	key := lineConst(c)
	for k := range lines {
		if key.Equal(keys[k]) && sameLineTerms(c, &lines[k]) {
			return true
		}
	}
	return false
}

// lineConst is a canonical inequality atom's constant with its leading
// coefficient made positive. Canonical atoms scale that coefficient to ±1,
// so two of them have one boundary line, read in either direction, exactly
// when their lineConsts are equal and their terms equal up to that sign
// (sameLineTerms). The constants tell most lines apart.
func lineConst(c *Constraint) rational.Rat {
	if c.Expr.terms[0].Coef.Sign() < 0 {
		return c.Expr.c.Neg()
	}
	return c.Expr.c
}

// sameLineTerms reports whether two canonical inequality atoms' terms are
// equal up to the sign of the leading coefficient.
func sameLineTerms(a, b *Constraint) bool {
	ta, tb := a.Expr.terms, b.Expr.terms
	if len(ta) != len(tb) {
		return false
	}
	flip := ta[0].Coef.Sign() != tb[0].Coef.Sign()
	for i := range ta {
		cb := tb[i].Coef
		if flip {
			cb = cb.Neg()
		}
		if ta[i].Var != tb[i].Var || !ta[i].Coef.Equal(cb) {
			return false
		}
	}
	return true
}

// halfPlanes reads cs as half-planes over at most two variables, appending
// to hs; ok is false on an equality, a trivial atom or a third variable. u is
// the variable of the first term seen: on canonical input, whose atoms are
// scaled to a leading ±1, that leaves nothing to rescale.
func halfPlanes(cs []Constraint, hs []halfPlane) (_ []halfPlane, ok bool) {
	var u, v string
	n := 0
	for _, c := range cs {
		ts := c.Expr.terms
		if c.Op == Eq || len(ts) == 0 || len(ts) > 2 {
			return nil, false
		}
		var a rational.Rat
		h := halfPlane{c: c.Expr.c, strict: c.Op == Lt}
		for _, t := range ts {
			switch {
			case n == 0:
				u, n = t.Var, 1
				a = t.Coef
			case t.Var == u:
				a = t.Coef
			case n == 1:
				v, n = t.Var, 2
				h.b = t.Coef
			case t.Var == v:
				h.b = t.Coef
			default:
				return nil, false
			}
		}
		lead := a
		if a.IsZero() {
			lead = h.b
		}
		h.su = a.Sign()
		if k := lead.Abs(); !k.Equal(rational.One) {
			k = k.Inv()
			h.b, h.c = h.b.Mul(k), h.c.Mul(k)
		}
		hs = append(hs, h)
	}
	return hs, true
}

// along restricts g to the boundary line of h: with the line parametrised
// by t — v when h has a u term (u = -su·(b·t + c)), u otherwise (v = -b·c) —
// g reads at + slope·t OP 0.
func (h *halfPlane) along(g *halfPlane) (at, slope rational.Rat) {
	switch m := g.su * h.su; {
	case h.su == 0:
		return g.c.Sub(g.b.Mul(h.b).Mul(h.c)), rational.FromInt(int64(g.su))
	case m == 0:
		return g.c, g.b
	case m > 0:
		return g.c.Sub(h.c), g.b.Sub(h.b)
	default:
		return g.c.Add(h.c), g.b.Add(h.b)
	}
}

// point is the point of h's boundary line at parameter t (see along).
func (h *halfPlane) point(t rational.Rat) (x, y rational.Rat) {
	if h.su == 0 {
		return t, h.b.Mul(h.c).Neg()
	}
	x = h.b.Mul(t).Add(h.c)
	if h.su > 0 {
		x = x.Neg()
	}
	return x, t
}

// clipBoundary intersects the boundary line of hs[i] with the closed
// half-plane of every other atom and records the outcome in hs[i]. Along
// the line each other atom bounds the parameter from one side (or, when
// parallel, admits the whole line or none of it), so what is left is an
// interval [lo, hi]. It returns false when another atom lies on the same
// line: the rule does not decide such a conjunction. (The scan stops as
// soon as the interval is empty, so a pair sharing a line the region does
// not reach goes unnoticed — both are then redundant, which is what the
// rule answers for them.)
//
// edgesOnly clips by the atoms already classified as carrying an edge and
// skips the rest. When those are all of the edge atoms and hs[i] is not one
// of them, the interval is the same: the edge atoms alone describe the
// closure, which every other atom contains.
func clipBoundary(hs []halfPlane, i int, edgesOnly bool) bool {
	h := &hs[i]
	var lo, hi rational.Rat
	hasLo, hasHi := false, false
	for k := range hs {
		if k == i || (edgesOnly && hs[k].kind != edge) {
			continue
		}
		at, slope := h.along(&hs[k])
		if slope.IsZero() {
			switch at.Sign() {
			case 0:
				return false
			case 1:
				h.kind = noContact
				return true
			}
			continue
		}
		t := at.Neg().Div(slope)
		if slope.Sign() > 0 {
			if !hasHi || t.Less(hi) {
				hi, hasHi = t, true
			}
		} else if !hasLo || lo.Less(t) {
			lo, hasLo = t, true
		}
		if hasLo && hasHi && hi.Less(lo) {
			h.kind = noContact
			return true
		}
	}
	if hasLo && hasHi && lo.Equal(hi) {
		h.kind = vertex
		h.x, h.y = h.point(lo)
	} else {
		h.kind = edge
	}
	return true
}

// admitted reports whether the vertex of hs[i], which lies in the closure
// of the whole conjunction, satisfies every other atom not yet dropped:
// only a strict atom whose boundary passes through it can fail.
func admitted(hs []halfPlane, i int) bool {
	x, y := hs[i].x, hs[i].y
	for k := range hs {
		g := &hs[k]
		if k == i || g.dropped || !g.strict {
			continue
		}
		if g.b.Mul(y).Add(g.c).Add(x.Mul(rational.FromInt(int64(g.su)))).IsZero() {
			return false
		}
	}
	return true
}
