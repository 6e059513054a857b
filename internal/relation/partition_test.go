package relation

import (
	"fmt"
	"math/rand"
	"testing"

	"cdb/internal/constraint"
	"cdb/internal/rational"
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

// TestPartitionLookupMatchesScan: Lookup returns exactly the indexes a
// SameRelationalPart scan finds, in input order.
func TestPartitionLookupMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	ts := randRelTuples(rng, 60)
	p := NewPartition(ts, []string{"a", "b"})
	for i, probe := range ts {
		var want []int
		for j := range ts {
			if probe.SameRelationalPart(ts[j]) {
				want = append(want, j)
			}
		}
		got := p.Lookup(probe)
		if len(got) != len(want) {
			t.Fatalf("tuple %d: Lookup returned %v, scan found %v", i, got, want)
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("tuple %d: Lookup returned %v, scan found %v", i, got, want)
			}
		}
	}
	// Bucket sizes cover all tuples exactly once.
	total := 0
	for _, members := range p.Buckets() {
		total += len(members)
	}
	if total != len(ts) {
		t.Fatalf("buckets hold %d indexes, want %d", total, len(ts))
	}
}

// TestPartitionMatch: Match buckets a second slice by the partition's
// identities — each index lands in the bucket a SameRelationalPart scan
// of the indexed tuples names, in input order, and one matching no indexed
// tuple lands nowhere. Matching and looking up existing buckets build no
// key: Match allocates its result, a constant four slices whatever the
// input size, and Lookup nothing.
func TestPartitionMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	ts, probes := randRelTuples(rng, 40), randRelTuples(rng, 60)
	p := NewPartition(ts, []string{"a", "b"})
	got := p.Match(probes)
	if len(got) != p.Len() || len(p.Buckets()) != p.Len() {
		t.Fatalf("Match returned %d buckets, Buckets %d, partition has %d", len(got), len(p.Buckets()), p.Len())
	}
	seen := 0
	for b, members := range got {
		rep := ts[p.Buckets()[b][0]]
		for k, j := range members {
			if !rep.SameRelationalPart(probes[j]) || (k > 0 && members[k-1] >= j) {
				t.Fatalf("bucket %d: %v holds %d out of order or of another identity", b, members, j)
			}
		}
		seen += len(members)
	}
	want := 0
	for _, pr := range probes {
		if len(p.Lookup(pr)) > 0 {
			want++
		}
	}
	if seen != want {
		t.Fatalf("Match placed %d probes, %d have a bucket", seen, want)
	}
	if n := testing.AllocsPerRun(5, func() { p.Match(probes) }); n > 4 {
		t.Errorf("Match allocated %v times, want at most 4", n)
	}
	if n := testing.AllocsPerRun(5, func() { p.Lookup(ts[0]) }); n != 0 {
		t.Errorf("Lookup of an existing bucket allocated %v times", n)
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
