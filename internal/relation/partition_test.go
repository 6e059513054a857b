package relation

import (
	"fmt"
	"math/rand"
	"sort"
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
	for _, k := range p.Keys() {
		total += len(p.Bucket(k))
	}
	if total != len(ts) {
		t.Fatalf("buckets hold %d indexes, want %d", total, len(ts))
	}
	if !sort.StringsAreSorted(p.Keys()) {
		t.Fatal("Keys() not sorted")
	}
}

// TestJoinTupleMatchesComposition: the fused single-allocation merge
// builds the same tuple as copying both sides into a fresh map.
func TestJoinTupleMatchesComposition(t *testing.T) {
	con := constraint.And(
		constraint.GeConst("x", rational.FromInt(1)),
		constraint.LeConst("x", rational.FromInt(5)),
	).Canon()
	t1 := NewTuple(map[string]Value{"a": Str("left"), "shared": Str("s")}, constraint.True())
	t2 := NewTuple(map[string]Value{"b": Str("right"), "shared": Str("s")}, constraint.True())

	fused := JoinTuple(t1, t2, con)
	m := t1.RVals()
	for k, v := range t2.RVals() {
		m[k] = v
	}
	composed := NewTuple(m, con)
	if fused.String() != composed.String() || !fused.SameRelationalPart(composed) || fused.hash() != composed.hash() {
		t.Fatalf("JoinTuple diverges from two-copy composition:\nfused:    %s\ncomposed: %s",
			fused, composed)
	}
	if !fused.Constraint().EqualCanonical(con) {
		t.Fatal("JoinTuple dropped the constraint part")
	}
}
