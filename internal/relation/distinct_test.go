package relation

import (
	"fmt"
	"math/rand"
	"testing"

	"cdb/internal/constraint"
)

// referenceDistinct is the dedup loop NormalizeWith and cqa.UnionCtx each
// carried before Distinct: a rendered key per tuple — relational key, '|',
// hex fingerprint — and exact verification of every key match.
func referenceDistinct(ts []Tuple) []Tuple {
	var out []Tuple
	seen := map[string][]int{}
	for _, t := range ts {
		k := fmt.Sprintf("%s|%x", referenceRelationalKey(t), t.con.Fingerprint())
		dup := false
		for _, i := range seen[k] {
			if out[i].SameRelationalPart(t) && out[i].con.EqualCanonical(t.con) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		seen[k] = append(seen[k], len(out))
		out = append(out, t)
	}
	return out
}

func canonTuples(r *Relation) []Tuple {
	ts := make([]Tuple, r.Len())
	for i, t := range r.Tuples() {
		ts[i] = t.Canon()
	}
	return ts
}

func sameTuples(a, b []Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			return false
		}
	}
	return true
}

// TestDistinctMatchesReference: the integer-keyed dedup keeps the tuples
// the string-keyed one kept, in the same order — also when every tuple is
// forced onto one hash, or onto two, so that the exact verification is all
// that separates distinct tuples.
func TestDistinctMatchesReference(t *testing.T) {
	hashes := map[string]func(Tuple) uint64{
		"real":       Tuple.hash,
		"constant":   func(Tuple) uint64 { return 42 },
		"two-valued": func(t Tuple) uint64 { return t.hash() & 1 },
	}
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 40; i++ {
		ts := canonTuples(orderRelation(rng, 120))
		want := referenceDistinct(ts)
		if len(want) == len(ts) {
			t.Fatalf("case %d: the input has no duplicates; the comparison is vacuous", i)
		}
		for name, hash := range hashes {
			got := distinct(append([]Tuple{}, ts...), hash)
			if !sameTuples(got, want) {
				t.Fatalf("case %d, %s hash: kept %d tuples, reference %d, or in another order", i, name, len(got), len(want))
			}
		}
	}
}

// TestTupleHashFollowsIdentity: tuples Distinct must merge hash alike,
// however their binding maps were filled and whichever equivalent atoms
// their constraint parts were canonicalised from.
func TestTupleHashFollowsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ts := canonTuples(orderRelation(rng, 300))
	pairs := 0
	for i, a := range ts {
		b := NewTuple(a.RVals(), constraint.And(a.con.Constraints()...).Canon()) // rebuilt: fresh map, fresh canonical form
		if a.hash() != b.hash() {
			t.Fatalf("tuple %d and its rebuilt copy hash differently: %s", i, a)
		}
		for _, c := range ts[:i] {
			if a.SameRelationalPart(c) && a.con.EqualCanonical(c.con) {
				pairs++
				if a.hash() != c.hash() {
					t.Fatalf("identical tuples hash differently: %s", a)
				}
			}
		}
	}
	if pairs == 0 {
		t.Fatal("no identical pair in the pool")
	}
	distinctHashes := map[uint64]bool{}
	for _, a := range referenceDistinct(ts) {
		distinctHashes[a.hash()] = true
	}
	if n := len(referenceDistinct(ts)); len(distinctHashes) < n {
		t.Errorf("%d distinct tuples share %d hashes: the hash loses a field", n, len(distinctHashes))
	}
}
