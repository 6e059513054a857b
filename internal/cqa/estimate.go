package cqa

import (
	"slices"
	"sort"

	"cdb/internal/constraint"
	"cdb/internal/rational"
	"cdb/internal/relation"
	"cdb/internal/schema"
)

// This file is the cardinality/selectivity side of the filter stage: it
// condenses one binary-operator input pair into the numbers the cost
// model (planner.go) decides with, built from the two filter mechanisms'
// own data structures — relation.Partition buckets for the relational
// part and the frame's envelope columns (pairing.go) for the constraint
// part. Because the estimates count exactly the pairs the filter stage
// can keep (bucket-matched ∧ per-column interval overlap), est is a
// true upper bound on the surviving candidates: the est_pairs ≥ act_pairs
// invariant EXPLAIN ANALYZE exposes and the property tests pin.

// pairStats is the filter stage's working set for one t1s × t2s pairing
// problem: the canonical inputs, their bucket pairs and frame, built once
// here and reused by the enumeration, and the estimator's summary of them.
type pairStats struct {
	t1s, t2s []relation.Tuple // the inputs, constraint parts canonical
	fr       frame            // the shared constraint attributes as columns, both sides projected
	as, bs   [][]int          // bucket b pairs t1s[as[b]] with t2s[bs[b]]; one bucket with no shared relational attrs
	relPairs int64            // pairs whose relational parts match
	overlap  []int64          // per frame column: pairs whose intervals intersect
	sweepCol int              // the interval sweep's sort column (-1 = none bounded on both sides)
	est      int64            // min(relPairs, min over overlap): upper bound on surviving candidates
}

// sharedAttrs splits the attributes two schemas have in common into the
// relational ones (the partition key) and the constraint ones (the
// envelope dimensions), in s1's declaration order.
func sharedAttrs(s1, s2 schema.Schema) (rel, con []string) {
	for _, a := range s1.Attrs() {
		if !s2.Has(a.Name) {
			continue
		}
		if a.Kind == schema.Relational {
			rel = append(rel, a.Name)
		} else {
			con = append(con, a.Name)
		}
	}
	return rel, con
}

// analyzePairing canonicalises both sides' constraint parts, partitions
// them on the shared relational attributes, projects their envelopes onto
// the frame and counts what the filter can keep.
func analyzePairing(t1s, t2s []relation.Tuple, sharedRel, sharedCon []string) pairStats {
	s := pairStats{t1s: canonTuples(t1s), t2s: canonTuples(t2s)}
	s.fr = newFrame(s.t1s, s.t2s, sharedCon)
	p := relation.NewPartition(s.t1s, sharedRel)
	s.as, s.bs = p.Buckets(), p.Match(s.t2s)
	for b := range s.as {
		s.relPairs += int64(len(s.as[b])) * int64(len(s.bs[b]))
	}
	s.sweepCol = s.fr.sweepColumn()
	s.est = s.relPairs
	s.overlap = make([]int64, len(s.fr.cols))
	for c := range s.overlap {
		s.overlap[c] = s.fr.overlapCount(c)
		s.est = min(s.est, s.overlap[c])
	}
	return s
}

// canonTuples returns ts with every constraint part canonical: ts itself
// when they all are (loaded relations, operator outputs), else a copy —
// once per operator, so that the pair lookup does not canonicalise both
// sides of every pair (constraint.SatCache.SatisfiablePair).
func canonTuples(ts []relation.Tuple) []relation.Tuple {
	for i := range ts {
		if !ts[i].Constraint().IsCanonical() {
			out := make([]relation.Tuple, len(ts))
			for j := range ts {
				out[j] = ts[j].Canon()
			}
			return out
		}
	}
	return ts
}

// estimatePairs is the estimator's bound on the candidates a join of two
// whole relations refines — what the join-chain reordering ranks by.
func estimatePairs(r1, r2 *relation.Relation) int64 {
	sharedRel, sharedCon := sharedAttrs(r1.Schema(), r2.Schema())
	return analyzePairing(r1.Tuples(), r2.Tuples(), sharedRel, sharedCon).est
}

// The overlap count is exact (not a histogram approximation) and still
// cheap: a pair (x, y) of non-empty intervals fails to intersect iff x ends
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

// overlapCount returns the exact number of pairs (i, j) whose column-c
// intervals intersect (Interval.Intersects semantics: an unbounded entry
// meets every non-empty one, an empty one meets nothing). Because the
// frame check rejects exactly the pairs some column separates or some
// empty interval excludes, this is an upper bound on the pairs surviving
// it.
func (f *frame) overlapCount(c int) int64 {
	nonEmpty := func(iv *constraint.Interval) bool { return !iv.IsEmpty() }
	total := f.l.count(c, nonEmpty) * f.r.count(c, nonEmpty)
	if total == 0 {
		return 0
	}
	return total - f.before(&f.l, &f.r, c) - f.before(&f.r, &f.l, c)
}

// before counts pairs (x of xs, y of ys) of non-empty column-c intervals
// where x's upper endpoint lies open-aware-strictly below y's lower
// endpoint — the pair separates with x entirely to the left. Intervals
// without the relevant bound can never separate on this side and drop out
// of the count. The keys are sorted in f.keys, one buffer for every column
// and both directions.
func (f *frame) before(xs, ys *side, c int) int64 {
	if f.keys == nil {
		f.keys = make([]endpointKey, 0, max(len(f.l.empty), len(f.r.empty)))
	}
	keys := f.keys[:0]
	for j := range ys.empty {
		y := ys.at(j, c)
		if !y.HasLower || y.IsEmpty() {
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
	for i := range xs.empty {
		x := xs.at(i, c)
		if !x.HasUpper || x.IsEmpty() {
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
