package constraint

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

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

// TestSubtractAllScopedMatchesSubtractAllWith checks the scoped staircase
// against the reference one on random 2-D region stacks: when step
// decides exactly what the sat oracle would, the emitted disjuncts must be
// identical atoms in identical order.
func TestSubtractAllScopedMatchesSubtractAllWith(t *testing.T) {
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
		if !base.IsSatisfiable() {
			continue // the root scope is the caller's promise that base is satisfiable
		}
		want := SubtractAllWith(base, ks, nil)
		var decisions int
		got := SubtractAllScoped(base, ks, nil, extrasStep(t, base, &decisions))
		if len(got) != len(want) {
			t.Fatalf("case %d: %d disjuncts, want %d", i, len(got), len(want))
		}
		for d := range want {
			if got[d].Key() != want[d].Key() {
				t.Fatalf("case %d disjunct %d: %q != %q", i, d, got[d].Key(), want[d].Key())
			}
		}
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
	want := SubtractAllWith(base, ks, nil)
	var decisions int
	got := SubtractAllScoped(base, ks, nil, extrasStep(t, base, &decisions))
	if len(got) != len(want) {
		t.Fatalf("%d disjuncts, want %d", len(got), len(want))
	}
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
