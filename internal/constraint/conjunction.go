package constraint

import (
	"slices"
	"sort"
	"strings"
	"sync"

	"cdb/internal/rational"
)

// Conjunction is a finite conjunction of atomic linear constraints — a
// "constraint tuple" in the Kanellakis-Kuper-Revesz framework. Its semantics
// is the set of assignments satisfying every constraint; the empty
// conjunction denotes "true" (all assignments).
type Conjunction struct {
	cs []Constraint

	// canon marks cs as being in canonical form (see Canon in canon.go), in
	// which case fp caches the structural fingerprint. Every constructor
	// that could perturb the form leaves canon false.
	canon bool
	// irr records that the planar rule has decided cs irredundant
	// (planar.go), so SimplifyWith returns it as it is. It is a memo, not
	// identity: Canon, fingerprints, equality and rendering ignore it, and
	// every constructor that changes the atoms leaves it clear. It sits in
	// canon's padding, so a Conjunction stays 56 bytes.
	irr bool
	fp  uint64

	// env, when non-nil, lazily memoizes the axis-aligned envelope (see
	// envelope.go). Canon attaches a fresh box; copies of the conjunction
	// share it, so the envelope is computed at most once per canonical
	// form. Constructors that perturb the form leave env nil (Envelope
	// then computes uncached), and so does the staircase's canonical
	// insert until it returns a piece (insert, withMemo in canon.go).
	env *envBox

	// aux, when non-nil, lazily memoizes one externally computed derived
	// value (see Memo). Same lifecycle as env: Canon attaches a fresh box,
	// copies share it, perturbing constructors leave it nil. It keeps the
	// constraint layer representation-neutral: higher layers (the vector
	// fast path in internal/vector) can cache an alternate finite
	// representation per canonical form without this package knowing its
	// type.
	aux *auxBox
}

// forceIrrClear keeps the planar rule from setting irr (ForceIrrClear).
var forceIrrClear bool

// ForceIrrClear makes the planar rule leave every conjunction's irredundant
// memo clear while on holds, so that every SimplifyWith proves its
// conjunction again: the tests run a workload with the memo and without it
// and compare the bytes. It must not be called while anything simplifies.
// Tests only.
func ForceIrrClear(on bool) { forceIrrClear = on }

// auxBox lazily holds one derived value per canonical form (the same
// shared-box pattern as envBox, but with an opaque payload chosen by the
// first caller of Memo).
type auxBox struct {
	once sync.Once
	val  any
}

// Memo returns the auxiliary value memoized on j's canonical form,
// computing it with compute on first use. All copies of a canonical
// conjunction share the box, so compute runs at most once per canonical
// form — concurrent callers block on the same sync.Once. On conjunctions
// without a box (non-canonical constructors leave aux nil) the value is
// computed uncached on every call.
//
// All callers of Memo on a process must agree on the computed type: the
// first compute wins and later calls get its value back regardless of the
// compute they pass.
func (j Conjunction) Memo(compute func() any) any {
	if j.aux == nil {
		return compute()
	}
	j.aux.once.Do(func() { j.aux.val = compute() })
	return j.aux.val
}

// And returns the conjunction of the given constraints. Trivially true
// constraints are dropped; a trivially false constraint makes the result
// unsatisfiable but is kept so the caller can detect it via IsSatisfiable.
func And(cs ...Constraint) Conjunction {
	out := make([]Constraint, 0, len(cs))
	for _, c := range cs {
		if triv, val := c.IsTrivial(); triv && val {
			continue
		}
		out = append(out, c)
	}
	return Conjunction{cs: out}
}

// True is the empty conjunction (satisfied by every assignment).
func True() Conjunction {
	return Conjunction{canon: true, fp: fingerprintOf(nil), env: trueEnvBox, aux: trueAuxBox}
}

// False returns a canonical unsatisfiable conjunction (0 < 0). The sentinel
// is pre-flagged canonical: Canon and Fingerprint leave it unchanged (its
// single atom is trivially false, which Canon collapses back to False), and
// And/With keep it (only trivially *true* atoms are dropped).
func False() Conjunction {
	return Conjunction{cs: falseAtoms, canon: true, fp: falseFingerprint, env: falseEnvBox, aux: falseAuxBox}
}

// IsFalse reports whether j is the False() sentinel — what Canon,
// SimplifyWith and Eliminate return for a conjunction they found
// unsatisfiable. It is a syntactic test: an unsatisfiable conjunction nobody
// has decided yet is not IsFalse.
func (j Conjunction) IsFalse() bool {
	return len(j.cs) == 1 && j.cs[0].Op == Lt && j.cs[0].Expr.IsConst() && j.cs[0].Expr.c.IsZero()
}

var (
	falseAtoms       = []Constraint{{Expr: Expr{}, Op: Lt}}
	falseFingerprint = fingerprintOf(falseAtoms)
	// Shared envelope and aux boxes for the two canonical sentinels (their
	// sync.Once is safe to share process-wide; both envelopes are trivially
	// empty — 0 < 0 has no variable term, so even False bounds nothing).
	trueEnvBox  = &envBox{knownBox: true}
	falseEnvBox = &envBox{}
	trueAuxBox  = &auxBox{}
	falseAuxBox = &auxBox{}
)

// With returns j extended with additional constraints.
func (j Conjunction) With(cs ...Constraint) Conjunction {
	out := make([]Constraint, 0, len(j.cs)+len(cs))
	out = append(out, j.cs...)
	for _, c := range cs {
		if triv, val := c.IsTrivial(); triv && val {
			continue
		}
		out = append(out, c)
	}
	return Conjunction{cs: out}
}

// Merge returns the conjunction of j and k.
func (j Conjunction) Merge(k Conjunction) Conjunction {
	return j.With(k.cs...)
}

// Constraints returns the constraints of j. The result must not be mutated.
func (j Conjunction) Constraints() []Constraint { return j.cs }

// Len returns the number of atomic constraints in j.
func (j Conjunction) Len() int { return len(j.cs) }

// IsTrue reports whether j is the empty conjunction.
func (j Conjunction) IsTrue() bool { return len(j.cs) == 0 }

// Vars returns the sorted set of variables occurring in j.
func (j Conjunction) Vars() []string {
	set := map[string]bool{}
	for _, c := range j.cs {
		for _, v := range c.Expr.Vars() {
			set[v] = true
		}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// HasVar reports whether variable v occurs in j.
func (j Conjunction) HasVar(v string) bool {
	for _, c := range j.cs {
		if c.HasVar(v) {
			return true
		}
	}
	return false
}

// Holds evaluates j under the assignment.
func (j Conjunction) Holds(assign map[string]rational.Rat) (bool, error) {
	for _, c := range j.cs {
		ok, err := c.Holds(assign)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// Substitute returns j with variable v replaced by repl in every constraint.
func (j Conjunction) Substitute(v string, repl Expr) Conjunction {
	out := make([]Constraint, 0, len(j.cs))
	for _, c := range j.cs {
		nc := c.Substitute(v, repl)
		if triv, val := nc.IsTrivial(); triv && val {
			continue
		}
		out = append(out, nc)
	}
	return Conjunction{cs: out}
}

// RenameAll returns j under the simultaneous renaming m (Expr.RenameAll).
// When m names no variable of j the result is j itself, memos attached —
// renaming a relational attribute costs a constraint part nothing.
func (j Conjunction) RenameAll(m map[string]string) Conjunction {
	touched := false
	for v := range m {
		touched = touched || j.HasVar(v)
	}
	if !touched {
		return j
	}
	out := make([]Constraint, len(j.cs))
	for i, c := range j.cs {
		out[i] = c.RenameAll(m)
	}
	return Conjunction{cs: out}
}

// IsSatisfiable reports whether some rational assignment satisfies j.
// Decided exactly by Fourier-Motzkin elimination (complete for linear
// rational arithmetic / dense orders). Every call runs the eliminator from
// scratch; hot paths that re-ask the same questions should go through a
// SatCache (engine.go) or thread a SatFunc into the *With variants.
func (j Conjunction) IsSatisfiable() bool {
	return satisfiable(j.cs)
}

// SatFunc decides satisfiability of a conjunction. It is how the memoized
// engine (a SatCache, typically owned by an exec.Context) is threaded into
// the decision procedures below: a nil SatFunc means "raw Fourier-Motzkin".
type SatFunc func(Conjunction) bool

// SatisfiableWith is IsSatisfiable through sat (nil = raw Fourier-Motzkin).
func (j Conjunction) SatisfiableWith(sat SatFunc) bool {
	if sat == nil {
		return j.IsSatisfiable()
	}
	return sat(j)
}

// Entails reports whether every assignment satisfying j also satisfies c,
// i.e. j ∧ ¬c is unsatisfiable (for every disjunct of ¬c).
func (j Conjunction) Entails(c Constraint) bool {
	return j.EntailsWith(c, nil)
}

// EntailsWith is Entails with the satisfiability sub-queries routed through
// sat (nil = raw Fourier-Motzkin).
func (j Conjunction) EntailsWith(c Constraint, sat SatFunc) bool {
	for _, neg := range c.Complement() {
		q := Conjunction{cs: append(append([]Constraint{}, j.cs...), neg)}
		if q.SatisfiableWith(sat) {
			return false
		}
	}
	return true
}

// EntailsAll reports whether j entails every constraint of k.
func (j Conjunction) EntailsAll(k Conjunction) bool {
	for _, c := range k.cs {
		if !j.Entails(c) {
			return false
		}
	}
	return true
}

// Equivalent reports whether j and k denote the same set of assignments.
// Both must be satisfiable or both unsatisfiable; satisfiable conjunctions
// are compared by mutual entailment.
func (j Conjunction) Equivalent(k Conjunction) bool {
	js, ks := j.IsSatisfiable(), k.IsSatisfiable()
	if !js || !ks {
		return js == ks
	}
	return j.EntailsAll(k) && k.EntailsAll(j)
}

// Simplify returns an equivalent conjunction with exact duplicates and
// redundant constraints removed. A constraint is redundant if the remaining
// constraints entail it. Unsatisfiable conjunctions simplify to False(), so
// a caller that needs both the decision and the simplified form asks once
// and tests the result with IsFalse.
func (j Conjunction) Simplify() Conjunction {
	return j.SimplifyWith(nil)
}

// SimplifyWith is Simplify with every satisfiability decision (the initial
// check and the entailment sub-queries of the redundancy pass) routed
// through sat (nil = raw Fourier-Motzkin). A conjunction the planar rule
// has already left irredundant (SimplifyPlanar, the difference staircase's
// emission) and a non-empty box (IsBox), which is satisfiable and has no
// redundant bound, are returned as they are; a conjunction of inequalities
// over at most two variables with a full-dimensional region is decided by
// the planar rule (planar.go). None of these asks sat anything.
func (j Conjunction) SimplifyWith(sat SatFunc) Conjunction {
	if j.irr || j.IsBox() {
		return j
	}
	if out, ok := j.simplifyPlanar(); ok {
		return out
	}
	if !j.SatisfiableWith(sat) {
		return False()
	}
	// Cheap pass: drop an atom whose canonical form an earlier one has.
	// Canon has already dropped trivially true and duplicate atoms, so a
	// canonical j skips it.
	out := make([]Constraint, 0, len(j.cs))
	if j.canon {
		out = append(out, j.cs...)
	} else {
		seen := make([]Constraint, 0, len(j.cs)) // the canonical forms of out
		for _, c := range j.cs {
			if triv, val := c.IsTrivial(); triv && val {
				continue
			}
			cc := c.Canonical()
			if slices.ContainsFunc(seen, func(o Constraint) bool { return o.Op == cc.Op && o.Expr.Equal(cc.Expr) }) {
				continue
			}
			seen = append(seen, cc)
			out = append(out, c)
		}
	}
	// Expensive pass: drop constraints entailed by the rest.
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

// Key returns a canonical string for the *syntactic* form of j (sorted
// canonical constraint keys). Equal keys imply equivalent conjunctions; the
// converse does not hold (use Equivalent for semantic comparison).
func (j Conjunction) Key() string {
	keys := make([]string, len(j.cs))
	for i, c := range j.cs {
		keys[i] = c.Key()
	}
	sort.Strings(keys)
	return strings.Join(keys, " & ")
}

// String renders j as " c1, c2, ..." matching the paper's comma-separated
// conjunction syntax; the empty conjunction renders as "true".
func (j Conjunction) String() string {
	var buf [128]byte
	return string(j.AppendTo(buf[:0]))
}

// AppendTo appends the String rendering of j to b and returns the extended
// slice, so a caller rendering many tuples can build each line in one
// buffer.
func (j Conjunction) AppendTo(b []byte) []byte {
	if len(j.cs) == 0 {
		return append(b, "true"...)
	}
	for i, c := range j.cs {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = c.appendTo(b)
	}
	return b
}
