package constraint

import (
	"slices"
	"sort"

	"cdb/internal/rational"
)

// This file is the constraint-level half of the cost-based planner: exact
// interval-overlap counting over envelope intervals. The physical planner
// (package cqa) asks, per shared attribute, "how many tuple pairs could
// survive the envelope filter?" — and because the answer is computed from
// the same memoized Envelope intervals the filter itself uses, with the
// same exact open-endpoint semantics, the count is a true upper bound on
// the surviving candidates: every pair the filter keeps intersects on
// every shared attribute, hence is counted here. That is the invariant
// the planner's est_pairs ≥ act_pairs property rests on.
//
// The count is exact (not a histogram approximation) and still cheap: a
// pair (x, y) of non-empty intervals fails to intersect iff x ends
// strictly before y starts or vice versa, and the two separation
// conditions are mutually exclusive, so
//
//	overlaps = |A|·|B| − before(A, B) − before(B, A)
//
// where before(A, B) counts pairs with x.Upper open-aware-strictly below
// y.Lower. Each before() term sorts one side's endpoints once and binary-
// searches per interval on the other side: O((n+m)·log(n+m)) rational
// comparisons, versus O(n·m) for the filter it predicts.

// endpointKey is a totally ordered encoding of an interval endpoint under
// the exact open-endpoint semantics of Interval.Intersects: an open upper
// bound at a behaves as a−ε, an open lower bound at a as a+ε, so that
// "upper separates from lower" is exactly key(upper) < key(lower).
type endpointKey struct {
	val rational.Rat
	eps int // -1 open upper, 0 closed, +1 open lower
}

func (k endpointKey) cmp(o endpointKey) int {
	if c := k.val.Cmp(o.val); c != 0 {
		return c
	}
	return k.eps - o.eps
}

// attrIntervals extracts the non-empty intervals for variable v from each
// envelope, dropping empty ones: an empty envelope interval means that
// side's conjunction is unsatisfiable on its own, and Envelope.Disjoint
// rejects every pair involving it, so it cannot contribute candidates.
func attrIntervals(envs []Envelope, v string) []Interval {
	ivs := make([]Interval, 0, len(envs))
	for _, e := range envs {
		iv, ok := e.Interval(v)
		if !ok {
			ivs = append(ivs, Interval{}) // unbounded both ways
			continue
		}
		if iv.IsEmpty() {
			continue
		}
		ivs = append(ivs, iv)
	}
	return ivs
}

// beforeCount counts pairs (x ∈ xs, y ∈ ys) where x's upper endpoint lies
// open-aware-strictly below y's lower endpoint — i.e. the pair separates
// with x entirely to the left. Intervals without the relevant bound can
// never separate on this side and drop out of the count.
func beforeCount(xs, ys []Interval) int64 {
	keys := make([]endpointKey, 0, len(ys))
	for _, y := range ys {
		if !y.HasLower {
			continue
		}
		eps := 0
		if y.LowerOpen {
			eps = 1
		}
		keys = append(keys, endpointKey{val: y.Lower, eps: eps})
	}
	slices.SortFunc(keys, endpointKey.cmp)
	var n int64
	for _, x := range xs {
		if !x.HasUpper {
			continue
		}
		eps := 0
		if x.UpperOpen {
			eps = -1
		}
		k := endpointKey{val: x.Upper, eps: eps}
		// Count keys strictly greater than k: x separates from those ys.
		idx := sort.Search(len(keys), func(i int) bool { return k.cmp(keys[i]) < 0 })
		n += int64(len(keys) - idx)
	}
	return n
}

// AttrOverlapCount returns the exact number of pairs (i, j) whose
// envelope intervals for variable v intersect (Interval.Intersects
// semantics; envelopes without a bound for v intersect everything
// non-empty, envelopes with an empty interval for v intersect nothing).
// Because Envelope.Disjoint rejects exactly the pairs some shared
// variable separates, this is an upper bound on the pairs surviving the
// envelope filter over any variable set containing v.
func AttrOverlapCount(a, b []Envelope, v string) int64 {
	xs, ys := attrIntervals(a, v), attrIntervals(b, v)
	total := int64(len(xs)) * int64(len(ys))
	if total == 0 {
		return 0
	}
	return total - beforeCount(xs, ys) - beforeCount(ys, xs)
}
