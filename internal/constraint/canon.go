package constraint

import (
	"bytes"
	"slices"
	"strings"

	"cdb/internal/rational"
)

// This file implements the canonical form of constraint tuples — the shared
// representation contract that every CQA operator emits (see package cqa) —
// and the 64-bit structural fingerprint computed over it.
//
// Canonical form matters for the same reason it mattered in the original
// CQA/CDB system: without normalisation and simplification the finite
// representations that the closure principle (paper §2.5) guarantees bloat
// from operator to operator, and the same satisfiability questions get
// re-proved endlessly. A canonical Conjunction is:
//
//   - atom-canonical: every constraint is scaled so its lexicographically
//     first variable coefficient has absolute value 1 (sign +1 for
//     equalities), per Constraint.Canonical;
//   - trivial-free: trivially true atoms are dropped; a trivially false
//     atom collapses the whole conjunction to False() (whose 0 < 0
//     sentinel is itself canonical and survives Canon unchanged);
//   - folded: parallel half-planes (same canonical variable part, same
//     inequality direction) are folded keeping only the tighter bound, and
//     duplicate atoms are removed;
//   - sorted: atoms are in a stable total order — by operator (=, <=, <),
//     then by rendered expression, then, for the variable names that make
//     two distinct expressions render alike, by terms and constant
//     (tieOrder) — so two conjunctions built from the same atoms in any
//     order canonicalise identically.
//
// Strings are the price of a readable order, so they are paid once: Canon
// renders each surviving atom one time and sorts on those keys; the fold
// and the fingerprint work on the terms themselves.
//
// The fingerprint is an FNV-1a-style hash over the canonical atoms. Equal
// fingerprints make equal canonical forms overwhelmingly likely but not
// certain; callers that must be exact (the sat-cache, Normalize) verify
// with EqualCanonical on fingerprint hits.

// Canonical returns c scaled so that its first (lexicographically smallest)
// variable coefficient has absolute value 1; for equalities the sign is also
// normalised to +1. Trivial constraints are returned unchanged. Two
// constraints denote the same half-space / hyperplane iff their canonical
// forms are Equal (modulo Eq sign, handled here).
func (c Constraint) Canonical() Constraint {
	ts := c.Expr.Terms()
	if len(ts) == 0 {
		return c
	}
	lead := ts[0].Coef
	var k rational.Rat
	if c.Op == Eq {
		k = lead.Inv() // may flip sign: fine for equalities
	} else {
		k = lead.Abs().Inv() // positive scale only: preserves inequality direction
	}
	if k.Equal(rational.One) {
		return c
	}
	return Constraint{Expr: c.Expr.Scale(k), Op: c.Op}
}

// Canon returns the canonical form of j: an equivalent conjunction with
// atom-canonical, trivial-free, folded, stably sorted constraints (see the
// file comment). Canon is idempotent, never grows the conjunction, and is
// cheap — it does no satisfiability reasoning, so a canonical conjunction
// can still be unsatisfiable (except for trivially false atoms, which
// collapse to False()).
//
// The result is flagged internally, so Canon on an already-canonical
// conjunction returns it unchanged in O(1); every constructor that could
// perturb the form (With, Merge, Substitute, ...) clears the flag.
func (j Conjunction) Canon() Conjunction {
	if j.canon {
		return j
	}
	// Pass 1: canonicalise atoms, drop trivially true, collapse on
	// trivially false.
	atoms := make([]Constraint, 0, len(j.cs))
	for _, c := range j.cs {
		if triv, val := c.IsTrivial(); triv {
			if val {
				continue
			}
			return False()
		}
		atoms = append(atoms, c.Canonical())
	}
	// Pass 2: fold parallel inequalities keeping only the tighter bound.
	atoms = compact(atoms, foldParallel(atoms, hashTerms))
	// Pass 3: stable total order.
	return canonical(sortAtoms(atoms))
}

// IsCanonical reports whether j is flagged canonical: Canon would return it
// unchanged. Only this package sets the flag, and only on what it has itself
// put in canonical form.
func (j Conjunction) IsCanonical() bool { return j.canon }

// canonical flags atoms — atom-canonical, trivial-free, folded and in
// canonical order — as a canonical conjunction with fresh memo boxes (one
// allocation holds both). A known box is sealed by the box kernel instead
// (newBox, box.go).
func canonical(atoms []Constraint) Conjunction {
	env, aux := memoBoxes()
	return Conjunction{cs: atoms, canon: true, fp: fingerprintOf(atoms), env: env, aux: aux}
}

// memoBoxes returns a canonical form's fresh memo boxes, both in one
// allocation.
func memoBoxes() (*envBox, *auxBox) {
	memo := &struct {
		env envBox
		aux auxBox
	}{}
	return &memo.env, &memo.aux
}

// insert returns j.With(c).Canon() for a j flagged canonical (the result
// is only as canonical as j) without canonicalising j again: c is made
// atom-canonical, folded against the at most one atom of j it is parallel
// to (foldParallel's tie rules), dropped when it is an equality j already
// holds, and otherwise binary-searched into place on rendered keys, so
// about log n atoms of j are rendered.
//
// The result is flagged canonical with its fingerprint but, unless it is
// j itself or a sentinel, has no memo boxes: a staircase chain builds
// every prefix it is asked for this way (Chain.Con), and boxes (withMemo)
// go only on the pieces returned whole. A conjunction without boxes
// computes its envelope and memo uncached, so the lack is a cost, never a
// wrong answer.
func (j Conjunction) insert(c Constraint) Conjunction {
	if triv, val := c.IsTrivial(); triv {
		if val {
			return j
		}
		return False()
	}
	if j.IsFalse() {
		return False()
	}
	c = c.Canonical()
	atoms := j.cs
	drop := -1 // the parallel atom c is tighter than
	if c.Op != Eq {
		for i, a := range atoms {
			if a.Op == Eq || !sameTerms(a.Expr.terms, c.Expr.terms) {
				continue
			}
			if cmp := c.Expr.c.Cmp(a.Expr.c); cmp > 0 || (cmp == 0 && c.Op == Lt && a.Op == Le) {
				drop = i
				break
			}
			return j // a is at least as tight: j already implies c
		}
	}
	out := make([]Constraint, 0, len(atoms)+1)
	if drop >= 0 {
		out = append(append(out, atoms[:drop]...), atoms[drop+1:]...)
	} else {
		out = append(out, atoms...)
	}
	// Binary search for c's place in the canonical order: by operator, then
	// by rendered expression, then tieOrder. An exact tie is an identical
	// equality.
	var keyBuf, probeBuf [128]byte
	key := c.Expr.appendTo(keyBuf[:0])
	lo, hi := 0, len(out)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		a := out[mid]
		cmp := int(a.Op) - int(c.Op)
		if cmp == 0 {
			cmp = bytes.Compare(a.Expr.appendTo(probeBuf[:0]), key)
		}
		if cmp == 0 {
			cmp = tieOrder(a, c)
		}
		switch {
		case cmp < 0:
			lo = mid + 1
		case cmp > 0:
			hi = mid
		default:
			return j
		}
	}
	out = slices.Insert(out, lo, c)
	return Conjunction{cs: out, canon: true, fp: fingerprintOf(out)}
}

// withMemo returns the canonical j with memo boxes attached when it has
// none (see insert).
func (j Conjunction) withMemo() Conjunction {
	if j.env == nil {
		j.env, j.aux = memoBoxes()
	}
	return j
}

// sortAtoms puts atom-canonical atoms into the canonical order, in place:
// by operator, then by rendered expression, then tieOrder. Each atom is
// rendered exactly once, into one shared buffer; the sort compares those
// keys and builds nothing. Identical equalities (the fold leaves them
// alone) end up adjacent and are dropped here; exact ties are identical
// atoms.
func sortAtoms(atoms []Constraint) []Constraint {
	var stack [256]byte
	var few [8]keyedAtom
	buf, keyed := stack[:0], few[:0]
	for _, c := range atoms {
		start := len(buf)
		buf = c.Expr.appendTo(buf)
		keyed = append(keyed, keyedAtom{c: c, start: start, end: len(buf)})
	}
	cmp := func(a, b keyedAtom) int {
		if a.c.Op != b.c.Op {
			return int(a.c.Op) - int(b.c.Op)
		}
		if c := bytes.Compare(buf[a.start:a.end], buf[b.start:b.end]); c != 0 {
			return c
		}
		return tieOrder(a.c, b.c)
	}
	slices.SortFunc(keyed, cmp)
	atoms = atoms[:0]
	for i, k := range keyed {
		if i > 0 && cmp(keyed[i-1], k) == 0 {
			continue
		}
		atoms = append(atoms, k.c)
	}
	return atoms
}

// tieOrder orders two atoms that render alike: by terms — variable, then
// coefficient — then by constant, and 0 only for identical atoms. For names
// that are identifiers a rendering is one expression, so this is reached
// only by identical atoms; a variable name may hold any bytes, though, and
// then the upper bounds of x at 1 and of a variable named "x - 1" at 0 both
// render "x - 1".
func tieOrder(a, b Constraint) int {
	ta, tb := a.Expr.terms, b.Expr.terms
	for i := range min(len(ta), len(tb)) {
		if c := strings.Compare(ta[i].Var, tb[i].Var); c != 0 {
			return c
		}
		if c := ta[i].Coef.Cmp(tb[i].Coef); c != 0 {
			return c
		}
	}
	if len(ta) != len(tb) {
		return len(ta) - len(tb)
	}
	return a.Expr.c.Cmp(b.Expr.c)
}

// keyedAtom is a canonical atom with where the rendering of its expression
// — the sort key sortAtoms computes once per atom — sits in the shared
// render buffer.
type keyedAtom struct {
	c          Constraint
	start, end int
}

// foldParallel is the parallel-half-plane fold shared by Canon and the
// Fourier-Motzkin redundancy sweep. atoms must be atom-canonical
// (Constraint.Canonical): the scale of an inequality is positive, so two
// inequalities bound the same direction iff their terms are identical, and
// opposite half-planes never share a group. Within a group only the
// tightest atom survives — terms + k OP 0 is tighter for the larger k, at
// equal k the strict inequality is tighter, and on an exact tie the earlier
// atom stays. Equalities are not folded. The result marks the losers.
//
// Groups are found by hash of the terms and every hit is verified
// term-wise, so a hash collision costs a probe, never a wrong fold; no
// string is built. hash is hashTerms everywhere but in the collision test.
func foldParallel(atoms []Constraint, hash func([]Term) uint64) (dominated []bool) {
	dominated = make([]bool, len(atoms))
	tightest := make(map[uint64]int, len(atoms)) // terms hash -> index of the group's tightest atom so far
	for i, c := range atoms {
		if c.Op == Eq {
			continue
		}
		h := hash(c.Expr.terms)
		for {
			p, ok := tightest[h]
			if !ok {
				tightest[h] = i
				break
			}
			prev := atoms[p]
			if !sameTerms(prev.Expr.terms, c.Expr.terms) {
				h++ // collision with another group: probe the next key
				continue
			}
			if cmp := c.Expr.c.Cmp(prev.Expr.c); cmp > 0 || (cmp == 0 && c.Op == Lt && prev.Op == Le) {
				dominated[p] = true
				tightest[h] = i
			} else {
				dominated[i] = true
			}
			break
		}
	}
	return dominated
}

// compact removes the atoms marked in drop, in place, keeping the order of
// the rest.
func compact(atoms []Constraint, drop []bool) []Constraint {
	out := atoms[:0]
	for i, c := range atoms {
		if !drop[i] {
			out = append(out, c)
		}
	}
	return out
}

func sameTerms(a, b []Term) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Var != b[i].Var || !a[i].Coef.Equal(b[i].Coef) {
			return false
		}
	}
	return true
}

// Fingerprint returns the 64-bit structural hash of j's canonical form.
// Equivalent-up-to-canonicalisation conjunctions (reordered atoms, scaled
// coefficients, redundant parallel bounds) have equal fingerprints; distinct
// canonical forms collide only with hash probability (~2^-64). Use
// EqualCanonical to verify a fingerprint match exactly.
func (j Conjunction) Fingerprint() uint64 {
	if j.canon {
		return j.fp
	}
	return j.Canon().fp
}

// EqualCanonical reports whether j and k have identical canonical forms —
// the exact predicate behind a Fingerprint match. Canonically equal
// conjunctions are equivalent; the converse does not hold (use Equivalent
// for the semantic comparison).
func (j Conjunction) EqualCanonical(k Conjunction) bool {
	cj, ck := j.Canon(), k.Canon()
	return equalAtoms(cj.cs, ck.cs)
}

// FNV-1a, 64 bit.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fingerprintOf hashes a slice of (canonical) constraints. Coefficients and
// constants go in as integers (rational.Rat.Hash), variable names byte by
// byte with an out-of-band terminator; nothing is rendered. The value is
// never printed or persisted.
func fingerprintOf(cs []Constraint) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range cs {
		h ^= uint64(c.Op) + 1
		h *= fnvPrime64
		h = foldTerms(h, c.Expr.terms)
		h = c.Expr.c.Hash(h)
	}
	return h
}

// hashTerms is the structural key of an expression's variable part.
func hashTerms(ts []Term) uint64 { return foldTerms(fnvOffset64, ts) }

func foldTerms(h uint64, ts []Term) uint64 {
	for _, t := range ts {
		for i := 0; i < len(t.Var); i++ {
			h ^= uint64(t.Var[i])
			h *= fnvPrime64
		}
		h ^= 0xff
		h *= fnvPrime64
		h = t.Coef.Hash(h)
	}
	return h
}
