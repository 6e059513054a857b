package cqa_test

// The metamorphic suite: instead of knowing the right ANSWER for a random
// input, these tests know algebraic IDENTITIES the answers must satisfy —
// the paper's closure principle (§2.5), upward compatibility with classical
// relational semantics (§3), and the standard relational-algebra laws that
// survive the lift to constraint relations. Each identity is checked on
// seeded random heterogeneous inputs via relation.Equivalent (mutual
// semantic cover), so canonical-form differences never cause false alarms.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"cdb/internal/constraint"
	"cdb/internal/cqa"
	"cdb/internal/datagen"
	"cdb/internal/exec"
	"cdb/internal/rational"
	"cdb/internal/relation"
	"cdb/internal/schema"
)

// TestMetamorphicCanonClosure asserts the closure principle's engineering
// face: every operator emits tuples whose constraint parts are already in
// canonical form (Canon is a fixpoint on operator output). Downstream
// consumers (dedup, fingerprint caches, difference) rely on this.
func TestMetamorphicCanonClosure(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	check := func(ctx string, r *relation.Relation, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		for _, tu := range r.Tuples() {
			j := tu.Constraint()
			if got, want := j.Canon().String(), j.String(); got != want {
				t.Errorf("%s: output tuple not canonical:\n  emitted %s\n  canon   %s", ctx, want, got)
			}
		}
	}
	for i := 0; i < 40; i++ {
		r1, r2 := datagen.RandomRelationPair(rng, 4)
		cond := cqa.Condition{cqa.AttrCmpConst(r1.Schema().ConstraintNames()[0], cqa.OpLe, rational.FromInt(3))}

		out, err := cqa.Select(nil, r1, cond)
		check(fmt.Sprintf("case %d select", i), out, err)
		out, err = cqa.Project(nil, r1, r1.Schema().Names()[0])
		check(fmt.Sprintf("case %d project", i), out, err)
		out, err = cqa.Join(nil, r1, r2)
		check(fmt.Sprintf("case %d join", i), out, err)
		out, err = cqa.Intersect(nil, r1, r2)
		check(fmt.Sprintf("case %d intersect", i), out, err)
		out, err = cqa.Union(nil, r1, r2)
		check(fmt.Sprintf("case %d union", i), out, err)
		out, err = cqa.Difference(nil, r1, r2)
		check(fmt.Sprintf("case %d difference", i), out, err)
		old := r1.Schema().Names()[0]
		out, err = cqa.Rename(nil, r1, map[string]string{old: "r" + old})
		check(fmt.Sprintf("case %d rename", i), out, err)
	}
}

// TestMetamorphicCommutativity: union and intersection are commutative up
// to semantic equivalence (the canonical tuple SETS may differ; the point
// sets may not).
func TestMetamorphicCommutativity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 60; i++ {
		r1, r2 := datagen.RandomRelationPair(rng, 4)
		for _, op := range []struct {
			name string
			f    func(ec *exec.Context, a, b *relation.Relation) (*relation.Relation, error)
		}{
			{"union", cqa.Union},
			{"intersect", cqa.Intersect},
		} {
			ab, err := op.f(nil, r1, r2)
			if err != nil {
				t.Fatalf("case %d %s: %v", i, op.name, err)
			}
			ba, err := op.f(nil, r2, r1)
			if err != nil {
				t.Fatalf("case %d %s: %v", i, op.name, err)
			}
			if !ab.Equivalent(ba) {
				t.Errorf("case %d: %s not commutative:\n  a op b = %s\n  b op a = %s",
					i, op.name, ab, ba)
			}
		}
	}
}

// TestMetamorphicDifferenceIdentity: R − (R − S) ≡ R ∩ S, the classic
// set-theoretic identity. It routes the same point sets through the two
// most divergent code paths in the engine — the staircase complement
// expansion versus the join-based intersection — so it catches asymmetric
// bugs either side's own tests miss.
func TestMetamorphicDifferenceIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 60; i++ {
		r, s := datagen.RandomRelationPair(rng, 4)
		rs, err := cqa.Difference(nil, r, s)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		lhs, err := cqa.Difference(nil, r, rs)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		rhs, err := cqa.Intersect(nil, r, s)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !lhs.Equivalent(rhs) {
			t.Errorf("case %d: R−(R−S) ≢ R∩S\n  R = %s\n  S = %s\n  lhs = %s\n  rhs = %s",
				i, r, s, lhs, rhs)
		}
	}
}

// TestMetamorphicProjectCollapse: πX(πY(r)) ≡ πX(r) whenever X ⊆ Y —
// eliminating variables in two batches must agree with eliminating them in
// one (transitivity of Fourier–Motzkin projection).
func TestMetamorphicProjectCollapse(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 60; i++ {
		s := datagen.RandomSchema(rng)
		r := datagen.RandomRelation(rng, s, 4)
		names := s.Names()
		if len(names) < 2 {
			continue
		}
		// Draw X ⊆ Y ⊆ names with X nonempty.
		var y []string
		for _, n := range names {
			if rng.Intn(3) != 0 {
				y = append(y, n)
			}
		}
		if len(y) == 0 {
			y = names[:1]
		}
		var x []string
		for _, n := range y {
			if rng.Intn(2) == 0 {
				x = append(x, n)
			}
		}
		if len(x) == 0 {
			x = y[:1]
		}
		py, err := cqa.Project(nil, r, y...)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		twoStep, err := cqa.Project(nil, py, x...)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		oneStep, err := cqa.Project(nil, r, x...)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !twoStep.Equivalent(oneStep) {
			t.Errorf("case %d: π%v(π%v(r)) ≢ π%v(r)\n  r = %s\n  two-step = %s\n  one-step = %s",
				i, x, y, x, r, twoStep, oneStep)
		}
	}
}

// ---- Upward compatibility with classical relational semantics (§3) ----
//
// On a schema with NO constraint attributes, the CQA operators must agree
// with textbook relational algebra over finite tuple sets (with the
// paper's narrow NULL semantics: NULL is a distinguished quasi-value,
// identical only to itself, matching nothing in conditions). The naive
// implementations below are written directly against that definition.

type row map[string]relation.Value

func rowKey(names []string, r row) string {
	var b strings.Builder
	for _, n := range names {
		v, ok := r[n]
		if !ok {
			v = relation.Null()
		}
		b.WriteString(v.Key())
		b.WriteByte('|')
	}
	return b.String()
}

func dedupRows(names []string, rows []row) []row {
	seen := map[string]bool{}
	var out []row
	for _, r := range rows {
		k := rowKey(names, r)
		if !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}

func toRelation(t *testing.T, s schema.Schema, rows []row) *relation.Relation {
	t.Helper()
	r := relation.New(s)
	for _, ro := range rows {
		rvals := map[string]relation.Value{}
		for k, v := range ro {
			if !v.IsNull() {
				rvals[k] = v
			}
		}
		r.MustAdd(relation.NewTuple(rvals, constraint.True()))
	}
	return r
}

func fromRelation(r *relation.Relation) []row {
	var out []row
	for _, t := range r.Tuples() {
		ro := row{}
		for _, n := range r.Schema().Names() {
			v, ok := t.RVal(n)
			if !ok {
				v = relation.Null()
			}
			ro[n] = v
		}
		out = append(out, ro)
	}
	return out
}

func randomRows(rng *rand.Rand, names []string, n int) []row {
	pool := []string{"a", "b", "c"}
	var out []row
	for i := 0; i < n; i++ {
		ro := row{}
		for _, name := range names {
			if rng.Intn(4) != 0 {
				ro[name] = relation.Str(pool[rng.Intn(len(pool))])
			} else {
				ro[name] = relation.Null()
			}
		}
		out = append(out, ro)
	}
	return out
}

// sameRows compares two classical relations as SETS of rows: relational
// semantics are set semantics, and the engine is free to emit physical
// duplicates that denote the same point set (e.g. after projection).
func sameRows(names []string, a, b []row) bool {
	keys := func(rows []row) string {
		set := map[string]bool{}
		for _, r := range rows {
			set[rowKey(names, r)] = true
		}
		ks := make([]string, 0, len(set))
		for k := range set {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		return strings.Join(ks, "\n")
	}
	return keys(a) == keys(b)
}

// TestMetamorphicUpwardCompatibility runs every operator on purely
// relational random inputs and compares against the naive classical
// implementation, per §3's compatibility theorem.
func TestMetamorphicUpwardCompatibility(t *testing.T) {
	s := schema.MustNew(schema.Rel("id", schema.String), schema.Rel("tag", schema.String))
	names := s.Names()
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 50; i++ {
		rows1 := dedupRows(names, randomRows(rng, names, rng.Intn(6)))
		rows2 := dedupRows(names, randomRows(rng, names, rng.Intn(6)))
		r1 := toRelation(t, s, rows1)
		r2 := toRelation(t, s, rows2)

		// Select id = 'a'.
		cond := cqa.Condition{cqa.StrEq("id", "a")}
		got, err := cqa.Select(nil, r1, cond)
		if err != nil {
			t.Fatalf("case %d select: %v", i, err)
		}
		var want []row
		for _, ro := range rows1 {
			if !ro["id"].IsNull() && ro["id"].Equal(relation.Str("a")) {
				want = append(want, ro)
			}
		}
		if !sameRows(names, fromRelation(got), want) {
			t.Errorf("case %d: select diverges from classical semantics\n  in  = %s\n  out = %s", i, r1, got)
		}

		// Select id != tag (attribute comparison, narrow NULL).
		got, err = cqa.Select(nil, r1, cqa.Condition{cqa.StrEqAttr("id", "tag")})
		if err != nil {
			t.Fatalf("case %d select attr: %v", i, err)
		}
		want = nil
		for _, ro := range rows1 {
			if !ro["id"].IsNull() && !ro["tag"].IsNull() && ro["id"].Equal(ro["tag"]) {
				want = append(want, ro)
			}
		}
		if !sameRows(names, fromRelation(got), want) {
			t.Errorf("case %d: attr select diverges\n  in  = %s\n  out = %s", i, r1, got)
		}

		// Project onto id (with classical dedup).
		got, err = cqa.Project(nil, r1, "id")
		if err != nil {
			t.Fatalf("case %d project: %v", i, err)
		}
		want = nil
		for _, ro := range rows1 {
			want = append(want, row{"id": ro["id"]})
		}
		want = dedupRows([]string{"id"}, want)
		if !sameRows([]string{"id"}, fromRelation(got), want) {
			t.Errorf("case %d: project diverges\n  in  = %s\n  out = %s", i, r1, got)
		}

		// Union with dedup.
		got, err = cqa.Union(nil, r1, r2)
		if err != nil {
			t.Fatalf("case %d union: %v", i, err)
		}
		want = dedupRows(names, append(append([]row{}, rows1...), rows2...))
		if !sameRows(names, fromRelation(got), want) {
			t.Errorf("case %d: union diverges\n  r1 = %s\n  r2 = %s\n  out = %s", i, r1, r2, got)
		}

		// Intersection: identical rows (NULL identical to NULL).
		got, err = cqa.Intersect(nil, r1, r2)
		if err != nil {
			t.Fatalf("case %d intersect: %v", i, err)
		}
		want = nil
		in2 := map[string]bool{}
		for _, ro := range rows2 {
			in2[rowKey(names, ro)] = true
		}
		for _, ro := range rows1 {
			if in2[rowKey(names, ro)] {
				want = append(want, ro)
			}
		}
		if !sameRows(names, fromRelation(got), want) {
			t.Errorf("case %d: intersect diverges\n  r1 = %s\n  r2 = %s\n  out = %s", i, r1, r2, got)
		}

		// Difference: drop rows present (identically) in r2.
		got, err = cqa.Difference(nil, r1, r2)
		if err != nil {
			t.Fatalf("case %d difference: %v", i, err)
		}
		want = nil
		for _, ro := range rows1 {
			if !in2[rowKey(names, ro)] {
				want = append(want, ro)
			}
		}
		if !sameRows(names, fromRelation(got), want) {
			t.Errorf("case %d: difference diverges\n  r1 = %s\n  r2 = %s\n  out = %s", i, r1, r2, got)
		}

		// Rename is a pure relabelling.
		got, err = cqa.Rename(nil, r1, map[string]string{"id": "key"})
		if err != nil {
			t.Fatalf("case %d rename: %v", i, err)
		}
		want = nil
		for _, ro := range rows1 {
			want = append(want, row{"key": ro["id"], "tag": ro["tag"]})
		}
		if !sameRows([]string{"key", "tag"}, fromRelation(got), want) {
			t.Errorf("case %d: rename diverges\n  in  = %s\n  out = %s", i, r1, got)
		}
	}
}
