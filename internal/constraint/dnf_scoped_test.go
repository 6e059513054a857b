package constraint

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// referenceSubtractAll is the second staircase the package once had beside
// SubtractAllScoped, verbatim: each subtrahend complements every piece
// from scratch (referenceComplement), deciding the piece itself again at
// the top before walking the subtrahend's atoms. It is the oracle the one
// staircase is held to, as referenceSimplify is for SimplifyWith.
func referenceSubtractAll(j Conjunction, ks []Conjunction, sat SatFunc) Disjunction {
	work := Disjunction{j}
	for _, k := range ks {
		var next Disjunction
		for _, piece := range work {
			next = append(next, referenceComplement(piece, k, false, sat)...)
		}
		work = next
		if len(work) == 0 {
			return nil
		}
	}
	return work
}

// referenceComplement returns base ∧ ¬j as a disjunction of satisfiable
// conjunctions by the staircase ¬c1 ∨ (c1 ∧ ¬c2) ∨ ...; lazyPrune skips
// the satisfiability pruning (the ablation SubtractLazy serves).
func referenceComplement(base Conjunction, j Conjunction, lazyPrune bool, sat SatFunc) Disjunction {
	if !lazyPrune && !base.SatisfiableWith(sat) {
		return nil
	}
	cs := j.Constraints()
	var out Disjunction
	prefix := base
	for _, c := range cs {
		for _, neg := range c.Complement() {
			cand := prefix.With(neg)
			if lazyPrune || cand.SatisfiableWith(sat) {
				out = append(out, cand)
			}
		}
		prefix = prefix.With(c)
		if !lazyPrune && !prefix.SatisfiableWith(sat) {
			// base already entails ¬(remaining prefix); nothing further to
			// subtract from.
			break
		}
	}
	return out
}

// sameDisjuncts fails unless got holds want's disjuncts, atom for atom, in
// want's order.
func sameDisjuncts(t *testing.T, name string, got, want Disjunction) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d disjuncts, want %d", name, len(got), len(want))
	}
	for d := range want {
		if got[d].Key() != want[d].Key() {
			t.Fatalf("%s disjunct %d: %q != %q", name, d, got[d].Key(), want[d].Key())
		}
	}
}

// extrasStep is the scope state the staircase had before it carried one:
// the list of atoms accumulated on top of base, decided from scratch. It
// also checks the contract of SubtractAllScoped on every call — the
// conjunction under decision, prefix ∧ atom, is base ∧ extras.
func extrasStep(t *testing.T, base Conjunction, decisions *int) func([]Constraint, Conjunction, Constraint) ([]Constraint, bool) {
	return func(parent []Constraint, prefix Conjunction, atom Constraint) ([]Constraint, bool) {
		*decisions++
		extras := append(parent[:len(parent):len(parent)], atom)
		full := base.With(extras...)
		if got := prefix.With(atom); got.Key() != full.Key() {
			t.Fatalf("step decides %q, want base ∧ extras = %q", got.Key(), full.Key())
		}
		return extras, full.IsSatisfiable()
	}
}

// TestSubtractAllScopedMatchesReference checks the one staircase against
// the reference on random 2-D region stacks: when step decides exactly
// what the sat oracle would, the emitted disjuncts must be identical atoms
// in identical order. SubtractAll, Subtract and SubtractLazy — the
// staircase with Fourier–Motzkin steps and with none — are held to the
// reference the same way, unsatisfiable minuends and no subtrahends
// included.
func TestSubtractAllScopedMatchesReference(t *testing.T) {
	empty := box("x", "2", "1")
	sameDisjuncts(t, "unsatisfiable minuend", SubtractAll(empty, []Conjunction{box("x", "0", "3")}),
		referenceSubtractAll(empty, []Conjunction{box("x", "0", "3")}, nil))
	sameDisjuncts(t, "no subtrahend", SubtractAll(empty, nil), Disjunction{empty})
	sameDisjuncts(t, "lazy, unsatisfiable minuend", SubtractLazy(empty, box("x", "0", "3")),
		referenceComplement(empty, box("x", "0", "3"), true, nil))
	rng := rand.New(rand.NewSource(11))
	randBox := func() Conjunction {
		x0 := rng.Int63n(8)
		y0 := rng.Int63n(8)
		j := box("x", itoa(x0), itoa(x0+1+rng.Int63n(4))).
			Merge(box("y", itoa(y0), itoa(y0+1+rng.Int63n(4))))
		if rng.Intn(2) == 0 {
			// A diagonal cut keeps the staircase from degenerating into
			// pure interval reasoning.
			j = j.With(MustNew(Var("x"), "<=", Var("y").Add(ConstInt(rng.Int63n(6)))))
		}
		if rng.Intn(3) == 0 {
			return j.Canon()
		}
		return j // raw form, as operators see them
	}
	for i := 0; i < 80; i++ {
		base := randBox()
		ks := make([]Conjunction, 1+rng.Intn(3))
		for i := range ks {
			ks[i] = randBox()
		}
		name := "case " + itoa(int64(i))
		want := referenceSubtractAll(base, ks, nil)
		sameDisjuncts(t, name+" SubtractAll", SubtractAll(base, ks), want)
		sameDisjuncts(t, name+" Subtract", Subtract(base, ks[0]), referenceSubtractAll(base, ks[:1], nil))
		sameDisjuncts(t, name+" SubtractLazy", SubtractLazy(base, ks[0]), referenceComplement(base, ks[0], true, nil))
		if !base.IsSatisfiable() {
			continue // the root scope is the caller's promise that base is satisfiable
		}
		var decisions int
		sameDisjuncts(t, name, SubtractAllScoped(base, ks, nil, extrasStep(t, base, &decisions)), want)
	}
}

// TestSubtractAllScopedExtrasReconstruct checks the scoped contract on a
// hand-countable staircase: the conjunction under decision is always
// base ∧ extras (extrasStep), and a piece is decided when it is emitted and
// not again at the top of the next subtrahend, so the number of decisions
// is one per negation tried plus one per prefix atom walked.
func TestSubtractAllScopedExtrasReconstruct(t *testing.T) {
	base := box("x", "0", "10").Merge(box("y", "0", "10"))
	ks := []Conjunction{
		box("x", "2", "4").Merge(box("y", "2", "4")),
		box("x", "6", "8"),
	}
	var decisions int
	sameDisjuncts(t, "staircase", SubtractAllScoped(base, ks, nil, extrasStep(t, base, &decisions)),
		referenceSubtractAll(base, ks, nil))
	// First subtrahend: 4 atoms, each a negation and a prefix step (8), 4
	// pieces out. Second: each piece walks x >= 6 (negation kept, prefix
	// step) and stops where the prefix turns empty; only the piece with
	// x >= 4 reaches x <= 8.
	if wantDecisions := 8 + 3*2 + 4; decisions != wantDecisions {
		t.Fatalf("%d decisions, want %d", decisions, wantDecisions)
	}
}

func TestMemoCachesPerCanonicalForm(t *testing.T) {
	j := box("x", "0", "1").Canon()
	var calls int32
	compute := func() any { atomic.AddInt32(&calls, 1); return "payload" }
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v := j.Memo(compute); v != "payload" {
				t.Errorf("Memo = %v", v)
			}
		}()
	}
	wg.Wait()
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	// Copies share the box.
	k := j
	if v := k.Memo(func() any { return "other" }); v != "payload" {
		t.Fatalf("copy recomputed: %v", v)
	}
	// Non-canonical conjunctions compute uncached every time.
	raw := box("x", "0", "1")
	n1 := raw.Memo(func() any { return 1 })
	n2 := raw.Memo(func() any { return 2 })
	if n1 != 1 || n2 != 2 {
		t.Fatalf("raw form should not cache: %v %v", n1, n2)
	}
}

func itoa(n int64) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	if neg {
		return "-" + string(b)
	}
	return string(b)
}
