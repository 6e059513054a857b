package cqa

// Upward-compatibility cross-check (§3.2 Claim: "the heterogeneous data
// model is completely upwardly compatible with the relational data
// model"): on schemas whose attributes are all Relational, every CQA
// operator must behave exactly like classical relational algebra. This
// file implements a tiny independent reference engine over finite rows
// and property-tests random plans against it.

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"cdb/internal/constraint"
	"cdb/internal/rational"
	"cdb/internal/relation"
	"cdb/internal/schema"
)

// refRow is a finite row: attribute -> value (absent = NULL).
type refRow map[string]relation.Value

func (r refRow) key() string {
	keys := make([]string, 0, len(r))
	for k := range r {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(r[k].Key())
		b.WriteByte(';')
	}
	return b.String()
}

// refRel is a set of rows (keyed canonically).
type refRel struct {
	attrs []string
	rows  map[string]refRow
}

func newRefRel(attrs ...string) *refRel {
	return &refRel{attrs: attrs, rows: map[string]refRow{}}
}

func (r *refRel) add(row refRow) {
	clean := refRow{}
	for k, v := range row {
		if !v.IsNull() {
			clean[k] = v
		}
	}
	r.rows[clean.key()] = clean
}

func refSelect(r *refRel, cond Condition) *refRel {
	out := newRefRel(r.attrs...)
	for _, row := range r.rows {
		keep := true
		for _, a := range cond {
			if !refAtomHolds(a, row) {
				keep = false
				break
			}
		}
		if keep {
			out.add(row)
		}
	}
	return out
}

func refAtomHolds(a Atom, row refRow) bool {
	switch at := a.(type) {
	case StringAtom:
		lv, ok := row[at.Attr]
		if !ok {
			return false
		}
		var rv relation.Value
		if at.IsLit {
			rv = relation.Str(at.Lit)
		} else {
			o, ok := row[at.OtherAttr]
			if !ok {
				return false
			}
			rv = o
		}
		eq := lv.Equal(rv)
		return (at.Op == OpEq && eq) || (at.Op == OpNe && !eq)
	case LinearAtom:
		assign := map[string]rational.Rat{}
		for _, v := range at.Expr.Vars() {
			val, ok := row[v]
			if !ok {
				return false // NULL: narrow semantics
			}
			rv, _ := val.AsRat()
			assign[v] = rv
		}
		got, err := at.Expr.Eval(assign)
		if err != nil {
			return false
		}
		switch at.Op {
		case OpEq:
			return got.IsZero()
		case OpNe:
			return !got.IsZero()
		case OpLt:
			return got.Sign() < 0
		case OpLe:
			return got.Sign() <= 0
		case OpGt:
			return got.Sign() > 0
		default:
			return got.Sign() >= 0
		}
	}
	return false
}

func refProject(r *refRel, cols ...string) *refRel {
	out := newRefRel(cols...)
	keep := map[string]bool{}
	for _, c := range cols {
		keep[c] = true
	}
	for _, row := range r.rows {
		nr := refRow{}
		for k, v := range row {
			if keep[k] {
				nr[k] = v
			}
		}
		out.add(nr)
	}
	return out
}

func refJoin(a, b *refRel) *refRel {
	shared := map[string]bool{}
	bAttrs := map[string]bool{}
	for _, x := range b.attrs {
		bAttrs[x] = true
	}
	var outAttrs []string
	outAttrs = append(outAttrs, a.attrs...)
	for _, x := range a.attrs {
		if bAttrs[x] {
			shared[x] = true
		}
	}
	for _, x := range b.attrs {
		if !shared[x] {
			outAttrs = append(outAttrs, x)
		}
	}
	out := newRefRel(outAttrs...)
	for _, ra := range a.rows {
		for _, rb := range b.rows {
			ok := true
			for s := range shared {
				// NULL-safe identity matching: a missing attribute is the
				// distinguished NULL quasi-value, identical to itself (the
				// point semantics; coincides with classical natural join on
				// NULL-free data).
				va := ra[s] // zero Value = NULL
				vb := rb[s]
				if !va.Identical(vb) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			nr := refRow{}
			for k, v := range ra {
				nr[k] = v
			}
			for k, v := range rb {
				nr[k] = v
			}
			out.add(nr)
		}
	}
	return out
}

func refUnion(a, b *refRel) *refRel {
	out := newRefRel(a.attrs...)
	for _, r := range a.rows {
		out.add(r)
	}
	for _, r := range b.rows {
		out.add(r)
	}
	return out
}

func refDiff(a, b *refRel) *refRel {
	out := newRefRel(a.attrs...)
	for k, r := range a.rows {
		if _, hit := b.rows[k]; !hit {
			out.add(r)
		}
	}
	return out
}

func refRename(a *refRel, old, new string) *refRel {
	attrs := append([]string{}, a.attrs...)
	for i := range attrs {
		if attrs[i] == old {
			attrs[i] = new
		}
	}
	out := newRefRel(attrs...)
	for _, r := range a.rows {
		nr := refRow{}
		for k, v := range r {
			if k == old {
				nr[new] = v
			} else {
				nr[k] = v
			}
		}
		out.add(nr)
	}
	return out
}

// toRef converts a pure-relational CQA relation to the reference form.
func toRef(t *testing.T, r *relation.Relation) *refRel {
	t.Helper()
	out := newRefRel(r.Schema().Names()...)
	for _, tp := range r.Tuples() {
		if !tp.Constraint().IsTrue() {
			t.Fatalf("non-empty constraint part on pure-relational tuple: %s", tp)
		}
		out.add(tp.RVals())
	}
	return out
}

func sameRows(a, b *refRel) bool {
	if len(a.rows) != len(b.rows) {
		return false
	}
	for k := range a.rows {
		if _, ok := b.rows[k]; !ok {
			return false
		}
	}
	return true
}

// randomPureRelation builds a pure-relational CQA relation and its
// reference twin.
func randomPureRelation(t *testing.T, rng *rand.Rand, s schema.Schema) (*relation.Relation, *refRel) {
	t.Helper()
	r := relation.New(s)
	ref := newRefRel(s.Names()...)
	n := 1 + rng.Intn(6)
	for i := 0; i < n; i++ {
		row := map[string]relation.Value{}
		for _, a := range s.Attrs() {
			if rng.Intn(4) == 0 {
				continue // NULL
			}
			if a.Type == schema.String {
				row[a.Name] = relation.Str(string(rune('A' + rng.Intn(3))))
			} else {
				row[a.Name] = relation.Rat(rational.FromInt(int64(rng.Intn(5))))
			}
		}
		r.MustAdd(relation.NewTuple(row, constraint.True()))
		ref.add(row)
	}
	return r, ref
}

// TestQuickUpwardCompatibility: random plans over random pure-relational
// data must agree with the reference relational engine, row for row.
func TestQuickUpwardCompatibility(t *testing.T) {
	rng := rand.New(rand.NewSource(2003))
	s := schema.MustNew(
		schema.Rel("id", schema.String),
		schema.Rel("v", schema.Rational),
		schema.Rel("w", schema.Rational))
	sSub := schema.MustNew(
		schema.Rel("id", schema.String),
		schema.Rel("v", schema.Rational))

	randAtom := func() Atom {
		switch rng.Intn(4) {
		case 0:
			return StrEq("id", string(rune('A'+rng.Intn(3))))
		case 1:
			return StrNe("id", string(rune('A'+rng.Intn(3))))
		case 2:
			return AttrCmpConst("v", []CompOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}[rng.Intn(6)],
				rational.FromInt(int64(rng.Intn(5))))
		default:
			return AttrCmpAttr("v", []CompOp{OpEq, OpLe, OpNe}[rng.Intn(3)], "w")
		}
	}

	for iter := 0; iter < 200; iter++ {
		r1, ref1 := randomPureRelation(t, rng, s)
		r2, ref2 := randomPureRelation(t, rng, s)
		rj, refj := randomPureRelation(t, rng, sSub)

		// select
		cond := Condition{randAtom()}
		if rng.Intn(2) == 0 {
			cond = append(cond, randAtom())
		}
		gotS, err := Select(nil, r1, cond)
		if err != nil {
			t.Fatalf("iter %d select: %v", iter, err)
		}
		if !sameRows(toRef(t, gotS), refSelect(ref1, cond)) {
			t.Fatalf("iter %d: select diverges for %s on\n%s", iter, cond, r1)
		}

		// project
		cols := [][]string{{"id"}, {"id", "v"}, {"v", "w"}}[rng.Intn(3)]
		gotP, err := Project(nil, r1, cols...)
		if err != nil {
			t.Fatal(err)
		}
		if !sameRows(toRef(t, gotP), refProject(ref1, cols...)) {
			t.Fatalf("iter %d: project %v diverges on\n%s", iter, cols, r1)
		}

		// join (shared attrs id, v)
		gotJ, err := Join(nil, r1, rj)
		if err != nil {
			t.Fatal(err)
		}
		if !sameRows(toRef(t, gotJ), refJoin(ref1, refj)) {
			t.Fatalf("iter %d: join diverges:\n%s\n⋈\n%s\ngot %s", iter, r1, rj, gotJ)
		}

		// union / difference
		gotU, err := Union(nil, r1, r2)
		if err != nil {
			t.Fatal(err)
		}
		if !sameRows(toRef(t, gotU), refUnion(ref1, ref2)) {
			t.Fatalf("iter %d: union diverges", iter)
		}
		gotD, err := Difference(nil, r1, r2)
		if err != nil {
			t.Fatal(err)
		}
		if !sameRows(toRef(t, gotD), refDiff(ref1, ref2)) {
			t.Fatalf("iter %d: difference diverges:\n%s\n-\n%s\ngot %s", iter, r1, r2, gotD)
		}

		// rename
		gotR, err := Rename(nil, r1, map[string]string{"v": "v2"})
		if err != nil {
			t.Fatal(err)
		}
		if !sameRows(toRef(t, gotR), refRename(ref1, "v", "v2")) {
			t.Fatalf("iter %d: rename diverges", iter)
		}
	}
}
