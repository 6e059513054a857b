package relation

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"cdb/internal/constraint"
	"cdb/internal/rational"
	"cdb/internal/schema"
)

// randRelTuples builds tuples with random relational parts over (a, b):
// a few repeating string values per attribute plus NULLs, so buckets and
// NULL-safe identity are both exercised. The constraint part is True.
func randRelTuples(rng *rand.Rand, n int) []Tuple {
	out := make([]Tuple, n)
	for i := range out {
		rvals := map[string]Value{}
		if rng.Intn(4) != 0 { // every ~4th leaves a NULL
			rvals["a"] = Str(fmt.Sprintf("a%d", rng.Intn(3)))
		}
		if rng.Intn(4) != 0 {
			rvals["b"] = Str(fmt.Sprintf("b%d", rng.Intn(3)))
		}
		out[i] = NewTuple(rvals, constraint.True())
	}
	return out
}

// TestPartitionKeyMatchesIdentity: equal keys over the full attribute set
// iff SameRelationalPart, including NULL = NULL.
func TestPartitionKeyMatchesIdentity(t *testing.T) {
	attrs := []string{"a", "b"}
	rng := rand.New(rand.NewSource(41))
	ts := randRelTuples(rng, 40)
	for i := range ts {
		for j := range ts {
			same := ts[i].SameRelationalPart(ts[j])
			keys := ts[i].PartitionKey(attrs) == ts[j].PartitionKey(attrs)
			if same != keys {
				t.Fatalf("tuples %d,%d: SameRelationalPart=%v but key equality=%v (%s vs %s)",
					i, j, same, keys, ts[i], ts[j])
			}
		}
	}
}

// TestPartitionKeyNoAliasing: length prefixes keep adjacent fields from
// running together ("ab","c" must not collide with "a","bc").
func TestPartitionKeyNoAliasing(t *testing.T) {
	t1 := NewTuple(map[string]Value{"a": Str("ab"), "b": Str("c")}, constraint.True())
	t2 := NewTuple(map[string]Value{"a": Str("a"), "b": Str("bc")}, constraint.True())
	attrs := []string{"a", "b"}
	if t1.PartitionKey(attrs) == t2.PartitionKey(attrs) {
		t.Fatalf("adjacent fields alias: %q", t1.PartitionKey(attrs))
	}
}

// TestPartitionLookupMatchesScan: the bucket a tuple is looked up in is
// exactly the indexes a SameRelationalPart scan finds, in input order, and
// the buckets hold every tuple once.
func TestPartitionLookupMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	ts := randRelTuples(rng, 60)
	p := NewPartition(ts, []string{"a", "b"})
	bucketOf := make([]int, len(ts))
	total := 0
	for b, members := range p.Buckets() {
		for _, i := range members {
			bucketOf[i] = b
		}
		total += len(members)
	}
	if total != len(ts) {
		t.Fatalf("buckets hold %d indexes, want %d", total, len(ts))
	}
	for i, probe := range ts {
		var want []int
		for j := range ts {
			if probe.SameRelationalPart(ts[j]) {
				want = append(want, j)
			}
		}
		if got := p.Buckets()[bucketOf[i]]; !slices.Equal(got, want) {
			t.Fatalf("tuple %d: its bucket is %v, scan found %v", i, got, want)
		}
	}
}

// TestPartitionAlign: aligning two partitions on their keys pairs each
// bucket of the first with the members of the second that share its
// identity — each member of the result lands where a SameRelationalPart
// scan of the first's tuples puts it, in input order, and one matching no
// tuple of the first lands nowhere — whichever side has more buckets.
// Aligning visits no tuple and builds no key: it allocates its result, one
// slice, whatever the sizes.
func TestPartitionAlign(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	attrs := []string{"a", "b"}
	few, many := randRelTuples(rng, 40), randRelTuples(rng, 60)
	many = append(many, NewTuple(map[string]Value{"a": Str("only-here")}, constraint.True()))
	for _, tc := range []struct{ ts, probes []Tuple }{{few, many}, {many, few}} {
		p, q := NewPartition(tc.ts, attrs), NewPartition(tc.probes, attrs)
		got := p.Align(q)
		if len(got) != len(p.Buckets()) {
			t.Fatalf("Align returned %d buckets, the partition has %d", len(got), len(p.Buckets()))
		}
		seen := 0
		for b, members := range got {
			rep := tc.ts[p.Buckets()[b][0]]
			for k, j := range members {
				if !rep.SameRelationalPart(tc.probes[j]) || (k > 0 && members[k-1] >= j) {
					t.Fatalf("bucket %d: %v holds %d out of order or of another identity", b, members, j)
				}
			}
			seen += len(members)
		}
		want := 0
		for _, pr := range tc.probes {
			if slices.ContainsFunc(tc.ts, pr.SameRelationalPart) {
				want++
			}
		}
		if seen != want {
			t.Fatalf("Align placed %d probes, %d have a bucket", seen, want)
		}
		if n := testing.AllocsPerRun(5, func() { p.Align(q) }); n > 1 {
			t.Errorf("Align allocated %v times, want at most 1", n)
		}
	}
}

// TestPartitionNoAttrs: over no attribute every tuple has one identity, so
// the partition is one bucket of every index in input order (none for no
// tuple), built without a key or a map — three allocations (the partition,
// its bucket list and the bucket) whatever the size — and it aligns with
// another such partition bucket to bucket.
func TestPartitionNoAttrs(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	ts := randRelTuples(rng, 50)
	p := NewPartition(ts, nil)
	if len(p.Buckets()) != 1 || len(p.Buckets()[0]) != len(ts) {
		t.Fatalf("no attribute: %d buckets, want one of %d", len(p.Buckets()), len(ts))
	}
	for i, j := range p.Buckets()[0] {
		if i != j {
			t.Fatalf("no attribute: bucket %v is not in input order", p.Buckets()[0])
		}
	}
	if n := testing.AllocsPerRun(5, func() { NewPartition(ts, nil) }); n > 3 {
		t.Errorf("NewPartition over no attribute allocated %v times, want at most 3", n)
	}
	empty := NewPartition(nil, nil)
	if len(empty.Buckets()) != 0 {
		t.Fatalf("no tuple: %d buckets, want none", len(empty.Buckets()))
	}
	q := NewPartition(ts[:7], nil)
	if got := p.Align(q); len(got) != 1 || !slices.Equal(got[0], q.Buckets()[0]) {
		t.Fatalf("aligned %v, want the other's one bucket", got)
	}
	if got := p.Align(empty); len(got) != 1 || got[0] != nil {
		t.Fatalf("aligned with no tuple: %v, want one empty bucket", got)
	}
	if got := empty.Align(p); len(got) != 0 {
		t.Fatalf("no tuple aligned: %v, want no bucket", got)
	}
}

// TestJoinTupleMatchesComposition: JoinTuple builds the same tuple as
// copying both sides into a fresh map — when it merges two binding maps,
// and when one side binds everything the other does (a key joined to the
// relation it keys, or a side with no bindings) and its map is shared
// instead, in either argument order.
func TestJoinTupleMatchesComposition(t *testing.T) {
	con := constraint.And(
		constraint.GeConst("x", rational.FromInt(1)),
		constraint.LeConst("x", rational.FromInt(5)),
	).Canon()
	left := NewTuple(map[string]Value{"a": Str("left"), "shared": Str("s")}, constraint.True())
	right := NewTuple(map[string]Value{"b": Str("right"), "shared": Str("s")}, constraint.True())
	key := NewTuple(map[string]Value{"shared": Str("s")}, constraint.True())
	none := ConstraintTuple(constraint.True())
	for _, tc := range []struct {
		name   string
		t1, t2 Tuple
		shares bool // the result's map is one side's
	}{
		{"merge", left, right, false},
		{"left-binds-all", left, key, true},
		{"right-binds-all", key, right, true},
		{"no-bindings", none, right, true},
		{"both-empty", none, none, true},
	} {
		fused := JoinTuple(tc.t1, tc.t2, con)
		m := tc.t1.RVals()
		for k, v := range tc.t2.RVals() {
			m[k] = v
		}
		composed := NewTuple(m, con)
		if fused.String() != composed.String() || !fused.SameRelationalPart(composed) || fused.hash() != composed.hash() {
			t.Fatalf("%s: JoinTuple diverges from two-copy composition:\nfused:    %s\ncomposed: %s",
				tc.name, fused, composed)
		}
		if !fused.Constraint().EqualCanonical(con) {
			t.Fatalf("%s: JoinTuple dropped the constraint part", tc.name)
		}
		if got := testing.AllocsPerRun(5, func() { _ = JoinTuple(tc.t1, tc.t2, con) }); (got == 0) != tc.shares {
			t.Errorf("%s: JoinTuple made %v allocations, want a fresh map only when neither side binds all", tc.name, got)
		}
	}
}

// TestFilterMemo: a working set is built on the first call for its
// attribute lists and handed back after; lists that differ in either part
// keep their own; Add and AddBound drop every one; a clone shares them
// both ways until one of the two relations changes.
func TestFilterMemo(t *testing.T) {
	r := New(schema.MustNew(schema.Rel("a", schema.String), schema.Con("x")))
	r.MustAdd(NewTuple(map[string]Value{"a": Str("v")}, constraint.True()))
	builds := 0
	get := func(r *Relation, rel, con []string) any {
		return r.FilterMemo(rel, con, func() any { builds++; return &builds })
	}
	want := func(what string, n int) {
		t.Helper()
		if builds != n {
			t.Fatalf("%s: %d builds, want %d", what, builds, n)
		}
	}
	a := []string{"a"}
	x := []string{"x"}
	get(r, a, nil)
	get(r, a, nil)
	want("one list twice", 1)
	get(r, nil, x)
	get(r, a, x)
	get(r, a, nil)
	want("three lists", 3)
	c := r.Clone()
	get(c, a, x)
	want("the clone reads the original's", 3)
	get(c, x, nil)
	get(r, x, nil)
	want("the original reads what the clone built", 4)
	c.MustAdd(NewTuple(nil, constraint.True()))
	get(r, a, nil)
	want("an Add to the clone leaves the original's", 4)
	get(c, a, nil)
	want("an Add drops the clone's", 5)
	r.MustAdd(NewTuple(nil, constraint.True()))
	get(r, a, nil)
	want("an Add drops the original's", 6)
	if err := r.AddBound([]Bound{{Attr: 0, Val: Str("w")}}, constraint.True()); err != nil {
		t.Fatal(err)
	}
	get(r, a, nil)
	want("an AddBound drops them", 7)
}
