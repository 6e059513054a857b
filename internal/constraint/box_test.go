package constraint_test

// Tests of the interval kernel for boxes (box.go), in the external package
// so that the rows and the fuzz input are written in the stored-tuple
// syntax. Everything is compared with the code the kernel short-cuts:
// Merge + Canon, Fourier-Motzkin satisfiability, the reference simplifier
// and Eliminate on a copy that is not flagged canonical.

import (
	"cmp"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"cdb/internal/constraint"
	"cdb/internal/datagen"
	"cdb/internal/rational"
)

// fresh copies j without its canonical flag and memo boxes, which is what
// keeps Eliminate and SimplifyWith on their general paths.
func fresh(j constraint.Conjunction) constraint.Conjunction {
	return constraint.And(j.Constraints()...)
}

// sameAtoms reports whether a and b hold the same atoms in the same order.
func sameAtoms(a, b constraint.Conjunction) bool {
	as, bs := a.Constraints(), b.Constraints()
	if len(as) != len(bs) {
		return false
	}
	for i := range as {
		if as[i].Op != bs[i].Op || !as[i].Expr.Equal(bs[i].Expr) {
			return false
		}
	}
	return true
}

// wantBox is IsBox defined without intervals: only single-variable
// inequalities, and satisfiable by elimination.
func wantBox(j constraint.Conjunction) bool {
	for _, c := range j.Constraints() {
		if c.Op == constraint.Eq || c.Expr.NumVars() != 1 {
			return false
		}
	}
	return j.IsSatisfiable()
}

// checkBox checks IsBox on the canonical form of j — and that a copy
// without the canonical memo is never reported a box — and, when j is a
// box, the two places a box is short-cut: SimplifyWith against the
// reference simplifier and Eliminate — of each variable, of every variable
// and of one that does not occur — against the eliminator.
func checkBox(t *testing.T, what string, j constraint.Conjunction) bool {
	t.Helper()
	c := j.Canon()
	box := wantBox(j)
	if c.IsBox() != box || fresh(c).IsBox() {
		t.Fatalf("%s: IsBox = %v (without the memo %v), want %v for %s", what, c.IsBox(), fresh(c).IsBox(), box, j)
	}
	if !box {
		return false
	}
	if got, want := c.Simplify(), constraint.ReferenceSimplify(fresh(c)); !sameAtoms(got, want) {
		t.Fatalf("%s: Simplify of the box %s = %s, reference %s", what, c, got, want)
	}
	vars := c.Vars()
	drops := [][]string{vars, {"unused"}}
	for _, v := range vars {
		drops = append(drops, []string{v})
	}
	for _, drop := range drops {
		got, want := c.Eliminate(drop...).Canon(), fresh(c).Eliminate(drop...).Canon()
		if !sameAtoms(got, want) || got.Fingerprint() != want.Fingerprint() || !got.IsBox() {
			t.Fatalf("%s: %s without %v = %s (box %v), eliminator says %s", what, c, drop, got, got.IsBox(), want)
		}
	}
	return true
}

// checkBoxPair checks both sides with checkBox and, when both are boxes,
// BoxMerge against Merge + Canon: verdict, atoms, order, fingerprint, and
// the merge as a box in its own right. It reports whether the pair was in
// BoxMerge's domain.
func checkBoxPair(t *testing.T, what string, a, b constraint.Conjunction) bool {
	t.Helper()
	if boxA, boxB := checkBox(t, what+" (left)", a), checkBox(t, what+" (right)", b); !boxA || !boxB {
		return false
	}
	want := a.Merge(b).Canon()
	got, sat := constraint.BoxMerge(a.Canon(), b.Canon())
	if sat != want.IsSatisfiable() {
		t.Fatalf("%s: BoxMerge says sat=%v, the eliminator %v, for %s AND %s", what, sat, !sat, a, b)
	}
	if !sat {
		return true
	}
	if !sameAtoms(got, want) || got.Fingerprint() != want.Fingerprint() || !got.EqualCanonical(want) {
		t.Fatalf("%s: BoxMerge of %s AND %s\n  got  %s\n  want %s", what, a, b, got, want)
	}
	if !got.IsBox() {
		t.Fatalf("%s: BoxMerge result %s is not flagged a canonical box", what, got)
	}
	checkBox(t, what+" (merge)", got)
	return true
}

// parsePair reads "a ; b" in the stored-tuple syntax.
func parsePair(src string) (a, b constraint.Conjunction, ok bool) {
	left, right, found := strings.Cut(src, ";")
	if !found {
		return a, b, false
	}
	as, okA := fuzzConstraints(left)
	bs, okB := fuzzConstraints(right)
	return constraint.And(as...), constraint.And(bs...), okA && okB
}

// boxRows are the shapes the kernel must get right, with whether both sides
// are boxes and whether they meet. They are also FuzzBoxMerge's seeds.
var boxRows = []struct {
	name, src  string
	boxes, sat bool
}{
	{"overlap", "x >= 0, x <= 4, y >= 0, y <= 4 ; x >= 2, x <= 6, y >= 1, y <= 3", true, true},
	{"contained", "x >= 0, x <= 9, y >= 0, y <= 9 ; x >= 2, x <= 3, y >= 4, y <= 5", true, true},
	{"equal boxes", "x >= 0, x <= 4, y >= 1, y <= 2 ; x >= 0, x <= 4, y >= 1, y <= 2", true, true},
	{"closed faces touch", "x >= 0, x <= 3 ; x >= 3, x <= 5", true, true},
	{"closed face meets strict face", "x >= 0, x <= 3 ; x > 3, x <= 5", true, false},
	{"strict face meets closed face", "x >= 0, x < 3 ; x >= 3, x <= 5", true, false},
	{"strict faces touch", "x >= 0, x < 3, y >= 0, y <= 1 ; x > 3, x <= 5, y >= 0, y <= 1", true, false},
	{"same bound, strict beats closed", "x >= 0, x <= 3 ; x > 0, x < 3", true, true},
	{"same bound, strict on the left", "x > 0, x < 3 ; x >= 0, x <= 3", true, true},
	{"apart", "x >= 0, x <= 1, y >= 0, y <= 1 ; x >= 2, x <= 3, y >= 0, y <= 1", true, false},
	{"apart on the second variable", "x >= 0, x <= 5, y >= 0, y <= 1 ; x >= 1, x <= 2, y > 1, y <= 3", true, false},
	{"one-sided against one-sided", "x >= 2 ; x <= 7", true, true},
	{"one-sided, apart", "x >= 7 ; x < 7", true, false},
	{"one-sided against bounded", "x >= 2, y <= 0 ; x >= 0, x <= 5, y >= -3, y <= 4", true, true},
	{"unbounded variable on one side", "x >= 0, x <= 4 ; x >= 1, x <= 2, y >= 0, y <= 1", true, true},
	{"true against a box", " ; x >= 1, x <= 2", true, true},
	{"true against true", " ; ", true, true},
	{"point against interval", "x >= 3, x <= 3 ; x >= 0, x <= 5", true, true},
	{"point against point", "x >= 3, x <= 3, y >= 1, y <= 1 ; x >= 3, x <= 3, y >= 1, y <= 1", true, true},
	{"point on a strict face", "x >= 3, x <= 3 ; x > 3, x <= 5", true, false},
	{"disjoint variable sets", "x >= 0, x <= 1 ; y >= 5, y <= 6", true, true},
	{"one variable", "t >= 0, t <= 10 ; t >= 4, t <= 20", true, true},
	{"three variables", "t >= 0, t <= 9, x >= 0, x <= 5, y >= 0, y <= 5 ; t >= 4, t <= 12, x >= 5, x <= 8, y >= 1, y < 2", true, true},
	{"three variables, apart on one", "t >= 0, t <= 9, x >= 0, x <= 5, y >= 0, y <= 5 ; t > 9, t <= 12, x >= 5, x <= 8, y >= 1, y < 2", true, false},
	{"fractions and scaled atoms", "2x >= 1, 3x <= 7 ; x >= 1/2, 4x < 9", true, true},
	{"variable names that order against the sign", "a1 >= 0, a1 <= 1, a10 >= 0, a10 <= 1 ; a1 >= -1, a10 <= 2, a2 >= 0", true, true},
	{"names that are prefixes of each other", "x >= 0, x <= 2, x1 >= -1, x1 <= 1 ; x1 >= 0, xy >= 1, xy <= 3, x <= 1", true, true},
	{"a prefix name against its longer names, constants zero", "x >= 0, x1 <= 0, xy >= 0 ; x <= 0, x1 >= 0, xy <= 0", true, true},
	{"closed below, strict above, against strict below, closed above", "x >= 1, x < 4, xy >= 0, xy <= 1 ; x > 1, x <= 4, x1 >= 0", true, true},
	{"strict below, closed above, against closed below, strict above", "x > 1, x <= 4, x1 <= 2 ; x >= 1, x < 4, xy < 1, xy >= 0", true, true},
	{"one side only, each variable", "x >= 1, x1 <= 3, xy > -2 ; x <= 5, x1 > 0, xy <= 0", true, true},
	{"one side only, prefix names apart", "x >= 1, x1 <= 3 ; x1 > 3, x <= 5", true, false},
	{"empty left side", "x >= 5, x <= 4 ; x >= 0, x <= 9", false, false},
	{"left side empty on a variable the right lacks", "x >= 0, x <= 9, y > 1, y < 1 ; x >= 0, x <= 9", false, false},
	{"empty by strictness", "x >= 2, x < 2 ; x >= 0", false, false},
	{"equality atom", "x = 3 ; x >= 0, x <= 5", false, false},
	{"equality atom beside bounds", "x >= 0, x <= 5, y = 1 ; x >= 0, x <= 5", false, false},
	{"two-variable atom", "x >= 0, x <= 5, x + y <= 3 ; x >= 0, x <= 5", false, false},
	{"false sentinel", "0 < 0 ; x >= 0", false, false},
}

// TestBoxKernelTable runs checkBoxPair over boxRows, both ways round, and
// pins each row's domain and verdict.
func TestBoxKernelTable(t *testing.T) {
	for _, row := range boxRows {
		a, b, ok := parsePair(row.src)
		if !ok {
			t.Fatalf("%s: %q does not parse", row.name, row.src)
		}
		for _, p := range [][2]constraint.Conjunction{{a, b}, {b, a}} {
			if got := checkBoxPair(t, row.name, p[0], p[1]); got != row.boxes {
				t.Errorf("%s: both sides boxes = %v, want %v", row.name, got, row.boxes)
			}
			if !row.boxes {
				continue
			}
			if _, sat := constraint.BoxMerge(p[0].Canon(), p[1].Canon()); sat != row.sat {
				t.Errorf("%s: BoxMerge sat = %v, want %v", row.name, sat, row.sat)
			}
		}
	}
}

// TestBoxMergeRandom is checkBoxPair over random boxes on a small grid, so
// that equal constants, touching faces and empty sides all turn up.
func TestBoxMergeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	vars := []string{"t", "x", "x1", "xy", "y"} // x is a prefix of x1 and xy
	randBox := func() string {
		var atoms []string
		skip := rng.Intn(len(vars)) // at most four variables: fuzzConstraints' limit
		for i, v := range vars {
			if i == skip || rng.Intn(4) == 0 {
				continue
			}
			lo := rng.Intn(6)
			if rng.Intn(5) != 0 {
				atoms = append(atoms, fmt.Sprintf("%s %s %d", v, []string{">=", ">"}[rng.Intn(2)], lo))
			}
			if rng.Intn(5) != 0 {
				atoms = append(atoms, fmt.Sprintf("%s %s %d/2", v, []string{"<=", "<"}[rng.Intn(2)], 2*lo+rng.Intn(7)))
			}
		}
		rng.Shuffle(len(atoms), func(i, k int) { atoms[i], atoms[k] = atoms[k], atoms[i] })
		return strings.Join(atoms, ", ")
	}
	inDomain, sats := 0, 0
	for i := 0; i < 2000; i++ {
		src := randBox() + " ; " + randBox()
		a, b, ok := parsePair(src)
		if !ok {
			t.Fatalf("%q does not parse", src)
		}
		if checkBoxPair(t, src, a, b) {
			inDomain++
			if _, sat := constraint.BoxMerge(a.Canon(), b.Canon()); sat {
				sats++
			}
		}
	}
	if inDomain < 1000 || sats < 200 || sats > inDomain-200 {
		t.Fatalf("generator is lopsided: %d of 2000 pairs were boxes, %d of them met", inDomain, sats)
	}
}

// FuzzBoxMerge is checkBoxPair on arbitrary "a ; b" input.
func FuzzBoxMerge(f *testing.F) {
	for _, row := range boxRows {
		f.Add(row.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if a, b, ok := parsePair(src); ok {
			checkBoxPair(t, src, a, b)
		}
	})
}

// TestBoxOrderMatchesSortAtoms: the merge's order on two box atoms is the
// order Canon (sortAtoms) puts them in, for variable names of any bytes —
// names that are prefixes of each other, names with spaces, signs and
// digits that imitate a rendered constant, a byte below ' ' and a name that
// starts with '-' — against each other, on both sides and under both operators. It is
// checked against the sort key itself (operator, then rendered expression,
// then variable and constant for two that render alike) and against Canon
// of the two atoms, which keeps both in that order.
func TestBoxOrderMatchesSortAtoms(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	const alphabet = "xy1 -+0/\t"
	name := func() string {
		b := make([]byte, 1+rng.Intn(4))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	bounds := []rational.Rat{rational.Zero, rational.One, rational.FromInt(-1), rational.New(3, 2), rational.FromInt(-7), rational.FromInt(10)}
	atom := func(v string) constraint.Constraint {
		k := bounds[rng.Intn(len(bounds))]
		return [](func(string, rational.Rat) constraint.Constraint){
			constraint.GeConst, constraint.GtConst, constraint.LeConst, constraint.LtConst,
		}[rng.Intn(4)](v, k).Canonical()
	}
	fixed := []string{"x", "x1", "xy", "x ", "x +", "x - 1", "-x", "x y", "x\t"}
	sign := func(n int) int { return min(max(n, -1), 1) }
	for i := 0; i < 20000; i++ {
		va, vb := name(), name()
		if i%4 == 0 {
			va, vb = fixed[rng.Intn(len(fixed))], fixed[rng.Intn(len(fixed))]
		}
		a, b := atom(va), atom(vb)
		want := int(a.Op) - int(b.Op)
		if want == 0 {
			want = strings.Compare(a.Expr.String(), b.Expr.String())
		}
		if want == 0 {
			ta, tb := a.Expr.Terms()[0], b.Expr.Terms()[0]
			want = cmp.Or(strings.Compare(ta.Var, tb.Var), ta.Coef.Cmp(tb.Coef), a.Expr.ConstTerm().Cmp(b.Expr.ConstTerm()))
		}
		got := constraint.BoxOrder(a, b)
		if sign(got) != sign(want) || sign(constraint.BoxOrder(b, a)) != -sign(want) {
			t.Fatalf("%q against %q: boxOrder %d, sort key order %d", a.Expr, b.Expr, got, want)
		}
		if a.Expr.Terms()[0] == b.Expr.Terms()[0] {
			continue // one slot: Canon folds, the merge never compares
		}
		if canon := constraint.And(a, b).Canon().Constraints(); len(canon) != 2 || (want < 0) != canon[0].Expr.Equal(a.Expr) {
			t.Fatalf("%q against %q: order %d, Canon gives %v", a.Expr, b.Expr, want, canon)
		}
	}
}

// TestBoxMergeAnyNames is checkBoxPair on random boxes over variable names
// drawn so that they are prefixes of each other and continue each other
// with bytes that a rendered constant also starts with, or with a byte
// below ' '. Two atoms of different slots can then render alike — upper
// bounds of "x" and of "x - 1" both as "x - 1" — and Canon keeps both, in
// tie order: a merge that makes such a pair must be Canon's, atom for atom.
// checkBox is not run where such a pair is, since its referenceSimplify
// drops one of two atoms with one rendered key.
func TestBoxMergeAnyNames(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	names := []string{"x", "x1", "xy", "x ", "x +", "x - 1", "x y", "x\t", "y"}
	randBox := func() constraint.Conjunction {
		var cs []constraint.Constraint
		for _, v := range names {
			if rng.Intn(2) == 0 {
				continue
			}
			lo := int64(rng.Intn(3) - 1) // small constants, so that renderings meet
			if rng.Intn(5) != 0 {
				cs = append(cs, []func(string, rational.Rat) constraint.Constraint{constraint.GeConst, constraint.GtConst}[rng.Intn(2)](v, rational.FromInt(lo)))
			}
			if rng.Intn(5) != 0 {
				cs = append(cs, []func(string, rational.Rat) constraint.Constraint{constraint.LeConst, constraint.LtConst}[rng.Intn(2)](v, rational.FromInt(lo+1+int64(rng.Intn(2)))))
			}
		}
		return constraint.And(cs...)
	}
	alike := func(j constraint.Conjunction) bool {
		seen, keys := map[string]constraint.Term{}, sortKeys(j)
		for i, c := range j.Constraints() {
			k := keys[i]
			if o, ok := seen[k]; ok && o != c.Expr.Terms()[0] {
				return true
			}
			seen[k] = c.Expr.Terms()[0]
		}
		return false
	}
	merged, met := 0, 0
	for i := 0; i < 3000; i++ {
		a, b := randBox(), randBox()
		if alike(a) || alike(b) {
			continue
		}
		if alike(a.Merge(b)) {
			want := a.Merge(b).Canon()
			if got, sat := constraint.BoxMerge(a.Canon(), b.Canon()); sat && !sameAtoms(got, want) {
				t.Fatalf("BoxMerge of %s AND %s = %s, Canon gives %s", a, b, got, want)
			} else if sat {
				met++
			}
			continue
		}
		if checkBoxPair(t, fmt.Sprintf("%s ; %s", a, b), a, b) {
			merged++
		}
	}
	if merged < 1000 || met < 20 {
		t.Fatalf("generator is lopsided: %d of 3000 pairs were boxes, %d merges met atoms that render alike", merged, met)
	}
}

// sortKeys is each atom's key in Canon's order: operator, then rendered
// expression.
func sortKeys(j constraint.Conjunction) []string {
	var keys []string
	for _, c := range j.Constraints() {
		keys = append(keys, c.Op.String()+" "+c.Expr.String())
	}
	return keys
}

// BenchmarkBoxMerge is one envelope-decided pair of the box-join workload:
// BenchmarkBoxJoinWarm's two dense 20-box relations, canonical, every one
// of their 400 pairs merged in turn.
func BenchmarkBoxMerge(b *testing.B) {
	p := datagen.Paper()
	p.SizeMin, p.Seed = 50, 16
	p2 := p
	p2.Seed += 500
	boxes := func(p datagen.Params) []constraint.Conjunction {
		var out []constraint.Conjunction
		for _, tp := range datagen.Canonical(datagen.ClusteredBoxRelation(p, 20, 1, 10, 77)).Tuples() {
			if !tp.Constraint().IsBox() {
				b.Fatalf("%s is not a box", tp)
			}
			out = append(out, tp.Constraint())
		}
		return out
	}
	as, bs := boxes(p), boxes(p2)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		constraint.BoxMerge(as[i%len(as)], bs[i/len(as)%len(bs)])
	}
}
