package query

import (
	"slices"
	"strings"
	"testing"

	"cdb/internal/constraint"
	"cdb/internal/cqa"
	"cdb/internal/rational"
	"cdb/internal/relation"
	"cdb/internal/schema"
)

func q(s string) rational.Rat { return rational.MustParse(s) }

func testEnv() cqa.Env {
	land := relation.New(schema.MustNew(
		schema.Rel("landId", schema.String), schema.Con("x"), schema.Con("y")))
	add := func(id string, x0, x1, y0, y1 string) {
		land.MustAdd(relation.NewTuple(
			map[string]relation.Value{"landId": relation.Str(id)},
			constraint.And(
				constraint.GeConst("x", q(x0)), constraint.LeConst("x", q(x1)),
				constraint.GeConst("y", q(y0)), constraint.LeConst("y", q(y1)))))
	}
	add("A", "0", "4", "0", "4")
	add("B", "5", "9", "0", "4")
	owners := relation.New(schema.MustNew(
		schema.Rel("name", schema.String), schema.Con("t"), schema.Rel("landId", schema.String)))
	addO := func(name, id, t0, t1 string) {
		owners.MustAdd(relation.NewTuple(
			map[string]relation.Value{"name": relation.Str(name), "landId": relation.Str(id)},
			constraint.And(constraint.GeConst("t", q(t0)), constraint.LeConst("t", q(t1)))))
	}
	addO("ann", "A", "0", "5")
	addO("bob", "B", "2", "8")
	return cqa.EnvOf(map[string]*relation.Relation{"Land": land, "Landownership": owners})
}

func TestLexerBasics(t *testing.T) {
	toks, err := Lex(`R0 = select t>=4, x+2y<=3.5 from "weird" # comment
-- more comment
B = buffer-join L and T within 1/2`)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokenKind
	var texts []string
	for _, tk := range toks {
		kinds = append(kinds, tk.Kind)
		texts = append(texts, tk.Text)
	}
	joined := strings.Join(texts, " ")
	for _, want := range []string{"R0", "=", "select", ">=", "3.5", "weird", "buffer-join", "within", "1", "/", "2"} {
		if !strings.Contains(joined, want) {
			t.Errorf("token stream missing %q: %v", want, texts)
		}
	}
	if kinds[len(kinds)-1] != TokEOF {
		t.Error("no EOF token")
	}
}

func TestLexerErrors(t *testing.T) {
	for _, src := range []string{`"unterminated`, "x ! y", "a @ b", "\"bad\nnewline\""} {
		if _, err := Lex(src); err == nil {
			t.Errorf("Lex(%q) succeeded", src)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",                                    // empty program
		"R0 select x=1 from T",                // missing =
		"R0 = select from T",                  // missing condition
		"R0 = select x=1 T",                   // missing from
		"R0 = project T",                      // missing on
		"R0 = join T",                         // missing and
		"R0 = rename a b in T",                // missing to
		"R0 = buffer-join A and B",            // missing within
		"R0 = k-nearest x in A to point(1,2)", // k not a number
		"R0 = k-nearest 2 in A to (1,2)",      // missing point
		"R0 = select x = from T",              // missing rhs
		"R0 = (select x=1 from T",             // unbalanced paren
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		}
	}
}

func TestRunPaperStyleProgram(t *testing.T) {
	env := testEnv()
	prog, err := Parse(`R0 = select landId = A from Landownership
R1 = project R0 on name, t`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := prog.Run(env)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 {
		t.Fatalf("result: %s", out)
	}
	name, _ := out.Tuples()[0].RVal("name")
	if !name.Equal(relation.Str("ann")) {
		t.Errorf("owner = %s", name)
	}
	if out.Schema().Has("landId") {
		t.Error("projection failed")
	}
}

func TestRunConditionVariants(t *testing.T) {
	env := testEnv()
	cases := []struct {
		src  string
		want int
	}{
		{`R = select x >= 5 from Land`, 1},         // clips to B
		{`R = select x >= 0, y <= 4 from Land`, 2}, // both
		{`R = select x + y <= 2 from Land`, 1},     // corner of A
		{`R = select 2x <= 8 from Land`, 2},        // x <= 4: A whole, B? x>=5 → empty → 1? see below
		{`R = select x != 2 from Land`, 3},         // A splits
		{`R = select landId != A from Land`, 1},    // string !=
		{`R = select "A" = landId from Land`, 1},   // literal on the left
		{`R = select 1/2x <= 2 from Land`, 1},      // fraction coefficient: x <= 4 keeps only A
		{`R = select x < 5 from Land`, 1},          // strict: B's closed x>=5 excluded
		{`R = select y = 2, x = 2 from Land`, 1},   // point query
	}
	for _, c := range cases {
		prog, err := Parse(c.src)
		if err != nil {
			t.Errorf("%s: %v", c.src, err)
			continue
		}
		out, err := prog.Run(env)
		if err != nil {
			t.Errorf("%s: %v", c.src, err)
			continue
		}
		want := c.want
		if c.src == `R = select 2x <= 8 from Land` {
			// 2x <= 8 means x <= 4: keeps all of A; B needs x in [5,9] — empty.
			want = 1
		}
		if out.Len() != want {
			t.Errorf("%s: %d tuples, want %d:\n%s", c.src, out.Len(), want, out)
		}
	}
}

func TestRunAlgebraOperators(t *testing.T) {
	env := testEnv()
	run := func(src string) *relation.Relation {
		t.Helper()
		prog, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		out, err := prog.Run(env)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		return out
	}
	// Union of the two parcels with themselves deduplicates.
	u := run(`R = union Land and Land`)
	if u.Len() != 2 {
		t.Errorf("self union = %d tuples", u.Len())
	}
	// Minus removes parcel A's region.
	m := run(`A = select landId = A from Land
R = minus Land and A`)
	ok, err := m.Contains(relation.Point{
		"landId": relation.Str("A"), "x": relation.Rat(q("1")), "y": relation.Rat(q("1"))})
	if err != nil || ok {
		t.Errorf("minus left A's interior: %v %v", ok, err)
	}
	ok, _ = m.Contains(relation.Point{
		"landId": relation.Str("B"), "x": relation.Rat(q("6")), "y": relation.Rat(q("1"))})
	if !ok {
		t.Error("minus removed B")
	}
	// Rename.
	r := run(`R = rename x to lon in Land`)
	if r.Schema().Has("x") || !r.Schema().Has("lon") {
		t.Error("rename failed")
	}
	// Join through the language (ownership x parcels).
	j := run(`R = join Landownership and Land`)
	if j.Len() != 2 {
		t.Errorf("join = %d tuples", j.Len())
	}
	// Nested (parenthesised) sources.
	n := run(`R = project (select landId = A from Land) on x`)
	if n.Len() != 1 || n.Schema().Len() != 1 {
		t.Errorf("nested = %s", n)
	}
	// Intersect enforces schema equality.
	if _, err := Parse(`R = intersect Land and Landownership`); err != nil {
		t.Fatalf("parse intersect: %v", err)
	}
	prog, _ := Parse(`R = intersect Land and Landownership`)
	if _, err := prog.Run(env); err == nil {
		t.Error("intersect of different schemas succeeded")
	}
}

func TestRunSpatialOperators(t *testing.T) {
	env := testEnv()
	run := func(src string) *relation.Relation {
		t.Helper()
		prog, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		out, err := prog.Run(env)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		return out
	}
	// Parcels within distance 1 of each other: A [0,4] and B [5,9] gap is 1.
	bj := run(`R = buffer-join Land and Land within 1`)
	// Pairs: (A,A), (B,B), (A,B), (B,A).
	if bj.Len() != 4 {
		t.Errorf("buffer-join = %d pairs:\n%s", bj.Len(), bj)
	}
	if !bj.Schema().Has("landId") || !bj.Schema().Has("landId_2") {
		t.Errorf("buffer-join schema = %s", bj.Schema())
	}
	bj2 := run(`R = buffer-join Land and Land within 1/2`)
	if bj2.Len() != 2 { // only the self pairs
		t.Errorf("buffer-join 1/2 = %d pairs:\n%s", bj2.Len(), bj2)
	}
	// k-nearest to a point next to B.
	kn := run(`R = k-nearest 1 in Land to point(10, 2)`)
	if kn.Len() != 1 {
		t.Fatalf("k-nearest = %s", kn)
	}
	id, _ := kn.Tuples()[0].RVal("landId")
	if !id.Equal(relation.Str("B")) {
		t.Errorf("nearest = %s", id)
	}
	// Negative coordinates parse.
	_ = run(`R = k-nearest 1 in Land to point(-3, -4)`)
	// Non-spatial input is rejected.
	prog, _ := Parse(`R = buffer-join Landownership and Land within 1`)
	if _, err := prog.Run(env); err == nil {
		t.Error("buffer-join over non-spatial relation succeeded")
	}
}

func TestRunOptimizedMatchesPlain(t *testing.T) {
	env := testEnv()
	src := `R0 = join Landownership and Land
R1 = select t >= 3, x <= 6, landId != A from R0
R2 = project R1 on name, t`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := prog.Run(env)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := prog.RunOptimizedCtx(env, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Equivalent(opt) {
		t.Errorf("optimized run differs:\n%s\nvs\n%s", plain, opt)
	}
}

func TestRunErrors(t *testing.T) {
	env := testEnv()
	cases := []string{
		`R = select z = 1 from Land`,        // unknown attribute
		`R = select landId < B from Land`,   // < on strings
		`R = Nonexistent`,                   // unknown relation
		`R = select landId = 3 from Land`,   // literal type clash: 3 is numeric... bare number vs string attr
		`R = union Land and Landownership`,  // schema mismatch
		`R = project Land on ghost`,         // unknown column
		`R = rename x to y in Land`,         // rename collision
		`R = select x = y + name from Land`, // string attr in linear expr
	}
	for _, src := range cases {
		prog, err := Parse(src)
		if err != nil {
			continue // parse-time rejection also fine
		}
		if _, err := prog.Run(env); err == nil {
			t.Errorf("%s: succeeded", src)
		}
	}
}

func TestExprString(t *testing.T) {
	prog, err := Parse(`R = select t >= 4 from (join A and B)
S = k-nearest 2 in R to point(1, 2)`)
	if err != nil {
		t.Fatal(err)
	}
	s0 := prog.Stmts[0].Expr.String()
	if !strings.Contains(s0, "select") || !strings.Contains(s0, "join A and B") {
		t.Errorf("String = %q", s0)
	}
	s1 := prog.Stmts[1].Expr.String()
	if !strings.Contains(s1, "k-nearest 2") {
		t.Errorf("String = %q", s1)
	}
}

func TestParseConstraints(t *testing.T) {
	cs, err := ParseConstraints("x >= 0, x + 2y <= 3, t = 1/2")
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 3 {
		t.Fatalf("got %d constraints", len(cs))
	}
	j := constraint.And(cs...)
	okPt, _ := j.Holds(map[string]rational.Rat{"x": q("1"), "y": q("1"), "t": q("1/2")})
	if !okPt {
		t.Error("satisfying point rejected")
	}
	if _, err := ParseConstraints("x != 3"); err == nil {
		t.Error("!= accepted in stored constraint")
	}
	if _, err := ParseConstraints(`x = "a"`); err == nil {
		t.Error("string accepted in stored constraint")
	}
	empty, err := ParseConstraints("")
	if err != nil || empty != nil {
		t.Errorf("empty = %v, %v", empty, err)
	}
}

// TestExecBindsEachStatement holds the front ends' runner to its contract:
// every statement reads the bindings of the statements before it, including
// one that shadows a name of the caller's environment; that environment
// looks up what it did before; bind sees every statement's raw result once
// and in order; and only the last result is returned, normalised. Each row's
// last statement must give what same, one statement over the caller's
// names, gives.
func TestExecBindsEachStatement(t *testing.T) {
	shrank := false
	for _, row := range []struct{ src, same string }{
		{"R0 = select x <= 6 from Land\nR1 = join R0 and Landownership\nR2 = project R0 on y",
			"R2 = project (select x <= 6 from Land) on y"},
		{"Land = select x <= 6 from Land\nR = join Land and Landownership",
			"R = join (select x <= 6 from Land) and Landownership"},
	} {
		env := testEnv()
		names := []string{"Land", "Landownership"}
		before := make([]*relation.Relation, len(names))
		for i, name := range names {
			before[i], _ = env.Lookup(name)
		}
		prog, err := Parse(row.src)
		if err != nil {
			t.Fatal(err)
		}
		var targets []string
		var bound []*relation.Relation
		target, out, err := prog.Exec(env, nil, func(name string, r *relation.Relation) {
			targets = append(targets, name)
			bound = append(bound, r)
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, name := range names {
			if r, _ := env.Lookup(name); r != before[i] {
				t.Errorf("%s: env looks up another %s after Exec", row.src, name)
			}
		}
		var want []string
		for _, st := range prog.Stmts {
			want = append(want, st.Target)
			if _, ok := env.Lookup(st.Target); ok && !slices.Contains(names, st.Target) {
				t.Errorf("%s: env binds %s after Exec", row.src, st.Target)
			}
		}
		if got := strings.Join(targets, ","); got != strings.Join(want, ",") {
			t.Fatalf("%s: bind saw %s, want %s", row.src, got, strings.Join(want, ","))
		}
		for i := range prog.Stmts {
			want, err := (&Program{Stmts: prog.Stmts[:i+1]}).RunOptimizedCtx(env, nil)
			if err != nil {
				t.Fatal(err)
			}
			if bound[i].Len() != want.Len() || bound[i].String() != want.String() {
				t.Errorf("%s: bind %s = %s, want the raw result %s", row.src, targets[i], bound[i], want)
			}
		}
		same, err := Parse(row.same)
		if err != nil {
			t.Fatal(err)
		}
		last := bound[len(bound)-1]
		if want, err := same.RunOptimizedCtx(env, nil); err != nil {
			t.Fatal(err)
		} else if last.String() != want.String() {
			t.Errorf("%s: %s = %s, want %s's %s", row.src, target, last, row.same, want)
		}
		if target != prog.Stmts[len(prog.Stmts)-1].Target {
			t.Errorf("%s: target = %q", row.src, target)
		}
		norm := last.NormalizeWith(nil)
		shrank = shrank || norm.Len() < last.Len()
		if out.String() != norm.String() {
			t.Errorf("%s: Exec returned %s, want the last result normalised %s", row.src, out, norm)
		}
	}
	if !shrank {
		t.Fatal("no row's last result normalises to fewer tuples: the normalisation check is vacuous")
	}
}
