package relation

// Order-equivalence and allocation guards for the result tail (ISSUE 15).
// The benchmark's digest re-sorts tuple lines, so an ordering bug in Rows
// is invisible end to end; the former comparator and renderers are kept
// here, verbatim, as the oracles.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"cdb/internal/constraint"
	"cdb/internal/rational"
	"cdb/internal/schema"
)

// referenceRelationalKey, referenceTupleString and referenceSorted are the
// former relationalKey, Tuple.String and Sorted: keys and lines built with
// strings.Builder and fmt, and a comparator that renders both tuples on
// every call.
func referenceRelationalKey(t Tuple) string {
	keys := make([]string, 0, len(t.rvals))
	for k := range t.rvals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		v := t.rvals[k]
		switch v.kind {
		case KindNull:
			b.WriteString("\x00null")
		case KindString:
			b.WriteString("s:" + v.s)
		default:
			b.WriteString("r:" + v.r.String())
		}
		b.WriteByte(';')
	}
	return b.String()
}

func referenceValueString(v Value) string {
	switch v.kind {
	case KindNull:
		return "null"
	case KindString:
		return fmt.Sprintf("%q", v.s)
	default:
		return v.r.String()
	}
}

func referenceTupleString(t Tuple) string {
	keys := make([]string, 0, len(t.rvals))
	for k := range t.rvals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys)+1)
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%s", k, referenceValueString(t.rvals[k])))
	}
	if !t.con.IsTrue() {
		parts = append(parts, t.con.String())
	}
	if len(parts) == 0 {
		return "(true)"
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// referenceNormalize is NormalizeWith as it stood before normalisation
// ordered and rendered its result, verbatim: tuples in input order,
// duplicates dropped by Distinct's hash pass, no rows remembered.
func referenceNormalize(r *Relation, sat constraint.SatFunc) *Relation {
	kept := make([]Tuple, 0, len(r.tuples))
	for _, t := range r.tuples {
		con := t.con.SimplifyWith(sat)
		if con.IsFalse() { // unsatisfiable: decided once, inside SimplifyWith
			continue
		}
		kept = append(kept, t.WithConstraint(con.Canon()))
	}
	return &Relation{schema: r.schema, tuples: Distinct(kept)}
}

func referenceSorted(r *Relation) []Tuple {
	out := append([]Tuple{}, r.tuples...)
	sort.Slice(out, func(i, j int) bool {
		ki, kj := referenceRelationalKey(out[i]), referenceRelationalKey(out[j])
		if ki != kj {
			return ki < kj
		}
		return out[i].con.String() < out[j].con.String()
	})
	return out
}

// orderSchema has several relational attributes of both types, so keys have
// several fields, and three constraint attributes.
func orderSchema() schema.Schema {
	return schema.MustNew(
		schema.Rel("owner", schema.String), schema.Rel("id", schema.String), schema.Rel("rank", schema.Rational),
		schema.Con("x"), schema.Con("y"), schema.Con("t"))
}

// orderRelation builds n tuples made to collide: few distinct relational
// parts (NULLs included — an absent binding — and strings that need
// quoting), constraint parts drawn from a small pool (so equal relational
// parts meet equal and different constraint parts, and whole tuples repeat
// exactly), and bounds large enough that canonical scaling leaves big.Rat
// coefficients behind.
func orderRelation(rng *rand.Rand, n int) *Relation {
	huge := rational.FromInt(math.MaxInt64 / 2)
	big := huge.Mul(huge) // promoted
	bounds := []rational.Rat{rational.FromInt(-3), rational.Zero, rational.New(7, 2), rational.FromInt(10), rational.New(-22, 7), huge, big, big.Neg()}
	pick := func() rational.Rat { return bounds[rng.Intn(len(bounds))] }
	owners := []string{"ann", "bob", `o"quoted`, "ünï", ""}
	ids := []string{"A", "B", "A;id=s:B"} // a value that imitates the key syntax
	cons := make([]constraint.Conjunction, 6)
	for i := range cons {
		var cs []constraint.Constraint
		for _, v := range []string{"x", "y", "t"} {
			if rng.Intn(3) > 0 {
				cs = append(cs, constraint.GeConst(v, pick()))
			}
			if rng.Intn(3) > 0 {
				cs = append(cs, constraint.LtConst(v, pick()))
			}
		}
		if rng.Intn(3) == 0 { // a two-variable atom with a big coefficient
			e := constraint.Var("x").Scale(big).Add(constraint.Var("y").Scale(rational.New(-2, 3)))
			cs = append(cs, constraint.Constraint{Expr: e.AddConst(pick()), Op: constraint.Le})
		}
		cons[i] = constraint.And(cs...)
		if rng.Intn(2) == 0 {
			cons[i] = cons[i].Canon()
		}
	}
	r := New(orderSchema())
	for i := 0; i < n; i++ {
		rv := map[string]Value{}
		if rng.Intn(4) > 0 {
			rv["owner"] = Str(owners[rng.Intn(len(owners))])
		}
		if rng.Intn(3) > 0 {
			rv["id"] = Str(ids[rng.Intn(len(ids))])
		}
		if rng.Intn(3) == 0 {
			rv["rank"] = Rat(pick())
		}
		r.MustAdd(NewTuple(rv, cons[rng.Intn(len(cons))]))
	}
	return r
}

// TestRowsMatchReferenceOrder: Rows, Sorted, Row.String, Tuple.String and
// Relation.String against the former comparator and renderers. Tuples that
// tie on both sort keys may come out in either order — they are compared by
// what is printed, which is the only place the order shows.
func TestRowsMatchReferenceOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 300; i++ {
		r := orderRelation(rng, 1+rng.Intn(60))
		want := referenceSorted(r)
		rows, sorted := r.Rows(), r.InRowsOrder()
		if len(rows) != len(want) || sorted.Len() != len(want) {
			t.Fatalf("case %d: %d rows, %d sorted, want %d", i, len(rows), sorted.Len(), len(want))
		}
		var body strings.Builder
		for k, w := range want {
			line := referenceTupleString(w)
			if got := rows[k].String(); got != line {
				t.Fatalf("case %d, row %d: Rows order or rendering differs\n got  %s\n want %s", i, k, got, line)
			}
			if got := rows[k].Tuple.String(); got != line {
				t.Fatalf("case %d, row %d: Tuple.String() = %s, want %s", i, k, got, line)
			}
			if got := string(sorted.AppendRow([]byte("  "), k)); got != "  "+line {
				t.Fatalf("case %d, row %d: AppendRow appended %q, want %q", i, k, got, "  "+line)
			}
			if got := sorted.Sorted()[k].String(); got != line {
				t.Fatalf("case %d, row %d: Sorted order differs\n got  %s\n want %s", i, k, got, line)
			}
			if got, con := rows[k].Con, w.con.String(); got != con {
				t.Fatalf("case %d, row %d: Con = %q, want %q", i, k, got, con)
			}
			if got, key := w.relationalKey(), referenceRelationalKey(w); got != key {
				t.Fatalf("case %d: relationalKey() = %q, want %q", i, got, key)
			}
			body.WriteString("\n  " + line)
		}
		if got, want := r.String(), r.schema.String()+" {"+body.String()+"\n}"; got != want {
			t.Fatalf("case %d: Relation.String()\n got  %s\n want %s", i, got, want)
		}
	}
	empty := New(orderSchema())
	if len(empty.Rows()) != 0 || empty.String() != empty.schema.String()+" {}" {
		t.Errorf("empty relation renders as %q", empty.String())
	}
	if got := ConstraintTuple(constraint.True()).String(); got != "(true)" {
		t.Errorf("the empty tuple renders as %q", got)
	}
	one := New(orderSchema())
	one.MustAdd(ConstraintTuple(constraint.True()))
	if got := string(one.NormalizeWith(nil).AppendRow([]byte("x"), 0)); got != "x(true)" {
		t.Errorf("the empty tuple appends as %q", got)
	}
}

// TestNormalizeDecidesOnce: NormalizeWith asks the decision procedure what
// SimplifyWith asks and nothing more — the former separate satisfiability
// call repeated SimplifyWith's first question for every tuple.
func TestNormalizeDecidesOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 100; i++ {
		r := randRelation(rng)
		calls := 0
		counting := func(j constraint.Conjunction) bool { calls++; return j.IsSatisfiable() }
		for _, tp := range r.Tuples() {
			tp.con.SimplifyWith(counting)
		}
		want := calls
		calls = 0
		got := r.NormalizeWith(counting)
		if calls != want {
			t.Fatalf("case %d: NormalizeWith made %d decisions, SimplifyWith alone makes %d", i, calls, want)
		}
		if ref := r.NormalizeWith(nil); got.String() != ref.String() {
			t.Fatalf("case %d: counted and plain Normalize differ:\n%s\n%s", i, got, ref)
		}
		for _, tp := range got.Tuples() {
			if !tp.IsSatisfiable() {
				t.Fatalf("case %d: unsatisfiable tuple survived: %s", i, tp)
			}
		}
	}
}

// TestRowsAllocsLinear keeps a rendering comparator from coming back: with
// both keys computed once per tuple the allocation count is linear in the
// number of tuples, where a comparator that renders allocates n log n
// times. On boxes over bindings that render without allocating, the
// rendering is one string per call, so Rows costs the same at 600 tuples
// as at 300.
func TestRowsAllocsLinear(t *testing.T) {
	allocs := func(n int) float64 {
		r := orderRelation(rand.New(rand.NewSource(18)), n)
		return testing.AllocsPerRun(5, func() { _ = r.Sorted() })
	}
	a300, a600 := allocs(300), allocs(600)
	if a600 > 2.2*a300 {
		t.Errorf("Sorted: %.0f allocations for 300 tuples, %.0f for 600 (more than 2.2x): not linear", a300, a600)
	}
	if a300 > 12*300 {
		t.Errorf("Sorted: %.0f allocations for 300 tuples, ceiling %d", a300, 12*300)
	}
	boxes := func(n int) float64 {
		r := New(orderSchema())
		for i := range n {
			r.MustAdd(NewTuple(map[string]Value{"owner": Str(fmt.Sprint("o", i%7)), "rank": Int(int64(i % 5))}, constraint.And(
				constraint.GeConst("x", rational.FromInt(int64(i))), constraint.LeConst("x", rational.New(int64(2*i+3), 2)),
				constraint.GeConst("y", rational.FromInt(int64(-i))), constraint.LtConst("y", rational.Zero)).Canon()))
		}
		return testing.AllocsPerRun(5, func() { _ = r.Rows() })
	}
	b300, b600 := boxes(300), boxes(600)
	t.Logf("Rows: %.0f allocations for 300 boxes, %.0f for 600", b300, b600)
	if b600 > b300+8 {
		t.Errorf("Rows: %.0f allocations for 300 boxes, %.0f for 600: more than 8 apart, so a row costs allocations", b300, b600)
	}
}

// TestNormalizeMatchesReference: NormalizeWith, which orders, renders and
// drops duplicates in one pass, against the former hash-dedup body followed
// by Rows — same Len, same lines in the same order, same String — and its
// tuples are in that order and its rows are the ones Rows, Sorted and
// InRowsOrder hand out. The relations repeat tuples exactly, leave
// attributes NULL, bind several attributes and carry big.Rat coefficients
// (orderRelation); db.Save's bytes are compared in save_test.go.
func TestNormalizeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	dups := 0
	for i := 0; i < 300; i++ {
		r := orderRelation(rng, 1+rng.Intn(80))
		got, want := r.NormalizeWith(nil), referenceNormalize(r, nil)
		checkNormalized(t, fmt.Sprint("case ", i), got, want)
		if want.Len() < r.Len() {
			dups++
		}
	}
	if dups < 100 {
		t.Fatalf("only %d of 300 relations had duplicates to drop", dups)
	}
	// Lines alike are not tuples alike: a constraint variable whose name
	// reads as an atom renders two different constraint parts as one line.
	// Only the exact check may drop a tuple.
	s := schema.MustNew(schema.Con("x"), schema.Con("y"), schema.Con("x <= 1, y"))
	r := New(s)
	one := rational.One
	r.MustAdd(ConstraintTuple(constraint.And(constraint.LeConst("x", one), constraint.LeConst("y", rational.FromInt(2)))))
	r.MustAdd(ConstraintTuple(constraint.And(constraint.LeConst("x <= 1, y", rational.FromInt(2)))))
	r.MustAdd(ConstraintTuple(constraint.And(constraint.LeConst("y", rational.FromInt(2)), constraint.LeConst("x", one))))
	got := r.NormalizeWith(nil)
	if rows := got.Rows(); got.Len() != 2 || rows[0].String() != rows[1].String() {
		t.Fatalf("two tuples that render alike and one duplicate normalise to %d rows %v, want the two", got.Len(), rows)
	}
	checkNormalized(t, "lines alike", got, referenceNormalize(r, nil))
}

// checkNormalized compares a NormalizeWith result with the reference's.
func checkNormalized(t *testing.T, what string, got, want *Relation) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d tuples, reference %d", what, got.Len(), want.Len())
	}
	rows, wantRows := got.Rows(), want.Rows()
	sorted, inOrder := got.Sorted(), got.InRowsOrder()
	for k := range rows {
		line := wantRows[k].String()
		if rows[k].String() != line || rows[k].Con != wantRows[k].Con || string(got.AppendRow(nil, k)) != line {
			t.Fatalf("%s, row %d: %s, reference %s", what, k, rows[k], line)
		}
		if got.Tuples()[k].String() != line || sorted[k].String() != line || inOrder.Tuples()[k].String() != line {
			t.Fatalf("%s, row %d: Tuples, Sorted or InRowsOrder out of Rows order", what, k)
		}
	}
	if got.String() != want.String() {
		t.Fatalf("%s: String\n got  %s\n want %s", what, got, want)
	}
	if len(rows) > 0 && (&sorted[0] != &got.Tuples()[0] || &inOrder.Tuples()[0] != &got.Tuples()[0]) {
		t.Fatalf("%s: Sorted or InRowsOrder rebuilt what NormalizeWith remembered", what)
	}
	// Neither Rows nor AppendRow renders a constraint part again: Rows
	// allocates its slice alone, and AppendRow what the line around a given
	// rendering costs (a big rational binding allocates as it prints).
	if len(rows) > 0 {
		buf := make([]byte, 0, 4<<10)
		if a := testing.AllocsPerRun(2, func() { _ = got.Rows() }); a != 1 {
			t.Fatalf("%s: Rows made %.0f allocations, want its slice alone", what, a)
		}
		line := testing.AllocsPerRun(2, func() { _ = got.tuples[0].appendLine(buf, rows[0].Con) })
		if a := testing.AllocsPerRun(2, func() { _ = got.AppendRow(buf, 0) }); a != line {
			t.Fatalf("%s: AppendRow made %.0f allocations, the line around its rendering %.0f", what, a, line)
		}
	}
}

// TestMemoClearedByAddKeptByClone: the memos — the opaque one and the
// renderings NormalizeWith remembers — describe the tuples as they stand: Add and
// AddBound drop them, a rejected tuple does not, a Clone carries them and
// InRowsOrder does not. A Clone or an InRowsOrder copy and its origin never
// see each other's later tuples, whether or not they started on one slice.
func TestMemoClearedByAddKeptByClone(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 50; i++ {
		r := orderRelation(rng, 1+rng.Intn(40))
		if i%2 == 1 {
			if r = r.NormalizeWith(nil); r.Len() == 0 {
				continue
			}
			if r.keys == nil {
				t.Fatal("NormalizeWith remembered no renderings")
			}
		} else if r.keys != nil {
			t.Fatal("a relation built by Add has renderings remembered")
		}
		remembered := r.keys
		if r.Memo() != nil {
			t.Fatal("a new relation has a memo")
		}
		type form struct{ n int }
		r.SetMemo(&form{r.Len()})
		if err := r.Add(NewTuple(map[string]Value{"nope": Int(1)}, constraint.True())); err == nil || r.Memo() == nil {
			t.Fatalf("a rejected tuple (%v) dropped the memo", err)
		}
		clone, sorted := r.Clone(), r.InRowsOrder()
		if clone == r || clone.Memo() != r.Memo() || sorted.Memo() != nil {
			t.Fatal("Clone must carry the memo under a header of its own, InRowsOrder must not")
		}
		if remembered != nil && (r.keys == nil || &clone.keys[0] != &remembered[0] || clone.render != r.render) || sorted.keys != nil {
			t.Fatal("a rejected tuple dropped the renderings, Clone did not carry them, or InRowsOrder did")
		}
		want := r.Rows()
		for k, tp := range sorted.Tuples() {
			if tp.String() != want[k].String() {
				t.Fatalf("case %d: InRowsOrder has %s at %d, Rows %s", i, tp, k, want[k])
			}
		}
		if again := sorted.InRowsOrder(); again == sorted || &again.tuples[0] != &sorted.tuples[0] {
			t.Fatal("a relation already in Rows order was copied, or handed back itself")
		}
		// A different tuple into each, by Add or by AddBound: every copy
		// ends with its own and the others keep their length.
		copies := []*Relation{r, clone, sorted}
		n := r.Len()
		for k, x := range copies {
			x.SetMemo(&form{n})
			own := ConstraintTuple(constraint.And(constraint.LeConst("x", rational.FromInt(int64(k)))).Canon())
			if i%2 == 0 {
				x.MustAdd(own)
			} else if err := x.AddBound(nil, own.Constraint()); err != nil {
				t.Fatal(err)
			}
			if x.Memo() != nil || x.keys != nil {
				t.Fatal("a tuple was added and a memo stayed")
			}
			if rows := x.Rows(); len(rows) != x.Len() {
				t.Fatalf("case %d: copy %d has %d tuples, Rows %d", i, k, x.Len(), len(rows))
			}
			for j, y := range copies {
				if want := n + map[bool]int{true: 1}[j <= k]; y.Len() != want {
					t.Fatalf("case %d: after a tuple went into copy %d, copy %d has %d tuples, want %d", i, k, j, y.Len(), want)
				}
				if last := y.Tuples()[y.Len()-1].String(); j <= k && last != fmt.Sprintf("(x <= %d)", j) {
					t.Fatalf("case %d: copy %d ends with %s: copies on one slice wrote over each other", i, j, last)
				}
			}
		}
	}
}
