package cqa

import (
	"cmp"
	"slices"
	"sort"

	"cdb/internal/constraint"
	"cdb/internal/relation"
	"cdb/internal/schema"
)

// This file is the filter stage's working set. Each input of a binary
// operator is read as an input (below): its tuples canonicalised, bucketed
// on the shared relational attributes (relation.Partition) and projected
// onto the frame of the shared constraint attributes (pairing.go). An input
// is built once per relation and pair of attribute lists and memoised on
// the relation (relation.FilterMemo): relations are immutable once built,
// so a stored relation pays for it on its first operator call and never
// again, and an operator output pays once, when it is first an input.
// analyzePairing pairs two inputs up: the partitions align on their keys,
// with no tuple visited. Its one count, relPairs, is the bucket-matched
// pair count: exact, what the enumeration rule (planner.go) sizes each
// bucket by, and an upper bound on the candidates the frame keeps — the
// est_pairs ≥ act_pairs invariant EXPLAIN ANALYZE exposes.
//
// The exact per-column overlap counts below are for the plan-time
// estimatePairs alone: the join-chain reordering (optimize_cost.go) ranks
// base-relation joins by them, once per plan. An operator call does not
// pay for them — sorting each side once per column costs as much as the
// enumeration they would plan.

// input is one relation as an input of the filter stage over a pair of
// shared attribute lists: what inputOf memoises on it.
type input struct {
	ts   []relation.Tuple    // the tuples, constraint parts canonical
	part *relation.Partition // ts bucketed on the shared relational attributes
	cols []string            // the shared constraint attributes, sorted: the frame's columns
	side side                // ts projected onto cols
}

// inputOf returns r as an input over sharedRel and sharedCon, built on the
// first call for those lists and memoised on r.
func inputOf(r *relation.Relation, sharedRel, sharedCon []string) *input {
	return r.FilterMemo(sharedRel, sharedCon, func() any {
		return newInput(r.Tuples(), sharedRel, sharedCon)
	}).(*input)
}

// newInput canonicalises ts, partitions them on sharedRel and projects them
// onto the sorted sharedCon.
func newInput(ts []relation.Tuple, sharedRel, sharedCon []string) *input {
	in := &input{ts: canonTuples(ts), cols: slices.Clone(sharedCon)}
	slices.Sort(in.cols) // column order, hence every tie-break, whatever the schema order
	in.part = relation.NewPartition(in.ts, sharedRel)
	in.side = project(in.ts, in.cols)
	return in
}

// pairStats is the filter stage's working set for one r1 × r2 pairing
// problem, built by analyzePairing and read by the enumeration.
type pairStats struct {
	t1s, t2s []relation.Tuple // the inputs, constraint parts canonical
	fr       frame            // the shared constraint attributes as columns, both sides projected
	as, bs   [][]int          // bucket b pairs t1s[as[b]] with t2s[bs[b]]; one bucket with no shared relational attrs
	relPairs int64            // bucket-matched pairs: Σ |as[b]|·|bs[b]|, an upper bound on the candidates
	sweepCol int              // the interval sweep's sort column (-1 = none bounded on both sides)
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

// analyzePairing reads both relations as inputs over the shared attributes,
// aligns their partitions, counts the bucket-matched pairs and picks the
// sweep column.
func analyzePairing(r1, r2 *relation.Relation, sharedRel, sharedCon []string) pairStats {
	l, r := inputOf(r1, sharedRel, sharedCon), inputOf(r2, sharedRel, sharedCon)
	s := pairStats{t1s: l.ts, t2s: r.ts, fr: newFrame(l, r)}
	s.as, s.bs = l.part.Buckets(), l.part.Align(r.part)
	for b := range s.as {
		s.relPairs += int64(len(s.as[b])) * int64(len(s.bs[b]))
	}
	s.sweepCol = s.fr.sweepColumn()
	return s
}

// canonTuples returns ts with every constraint part canonical: ts itself
// when they all are (loaded relations, operator outputs), else a copy —
// once per input, so that the pair lookup does not canonicalise both
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

// estimatePairs bounds the candidates a join of two whole relations
// refines — what the join-chain reordering ranks by: the bucket-matched
// pairs, capped by each frame column's overlap count (a pair the frame
// keeps overlaps in every column).
func estimatePairs(r1, r2 *relation.Relation) int64 {
	sharedRel, sharedCon := sharedAttrs(r1.Schema(), r2.Schema())
	s := analyzePairing(r1, r2, sharedRel, sharedCon)
	est := s.relPairs
	for c := range s.fr.cols {
		est = min(est, s.fr.overlapCount(c))
	}
	return est
}

// The overlap count is exact (not a histogram approximation) and still
// cheap: a pair (x, y) of non-empty intervals fails to intersect iff x ends
// strictly before y starts or vice versa, and the two separation
// conditions are mutually exclusive, so
//
//	overlaps = |A|·|B| − before(A, B) − before(B, A)
//
// where before(A, B) counts pairs with x.Upper open-aware-strictly below
// y.Lower. Each before() term sorts one side's lower endpoints once and
// binary-searches per interval on the other side: O((n+m)·log(n+m)) key
// comparisons, versus O(n·m) for the join it ranks.

// endpointKey is one tuple's lower endpoint in a frame column, as before
// sorts them: by the float key, and on a float tie, in the order of
// Interval.Intersects' open-endpoint semantics — an open lower bound at a
// behaves as a+ε, after a closed one at a — read off the keys' bits when
// both are exact, and off the exact intervals (frame.interval) when either
// is not. Under that order "x's upper endpoint separates from y's lower"
// (frame.endsBefore) holds for a suffix of the sorted keys.
type endpointKey struct {
	lo   float64
	bits constraint.KeyBits
	i    int // the tuple
}

// overlapCount returns the exact number of pairs (i, j) whose column-c
// intervals intersect (Interval.Intersects semantics: an unbounded entry
// meets every non-empty one, an empty one meets nothing). Because the
// frame check rejects exactly the pairs some column separates or some
// empty interval excludes, this is an upper bound on the pairs surviving
// it.
func (f *frame) overlapCount(c int) int64 {
	nonEmpty := func(k constraint.Keys) bool { return k.Bits&constraint.Empty == 0 }
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
		if y := ys.at(j, c); hasLo(y) && y.Bits&constraint.Empty == 0 {
			keys = append(keys, endpointKey{lo: y.Lo, bits: y.Bits, i: j})
		}
	}
	slices.SortFunc(keys, func(a, b endpointKey) int {
		if o := cmp.Compare(a.lo, b.lo); o != 0 {
			return o
		}
		if a.bits&b.bits&constraint.LoExact == 0 {
			if o := f.interval(ys, a.i, c).Lower.Cmp(f.interval(ys, b.i, c).Lower); o != 0 {
				return o
			}
		}
		return int(a.bits&constraint.LoOpen) - int(b.bits&constraint.LoOpen)
	})
	var n int64
	for i := range xs.empty {
		if x := xs.at(i, c); !hasHi(x) || x.Bits&constraint.Empty != 0 {
			continue
		}
		// Count the ys x ends before: a suffix of the sorted keys.
		idx := sort.Search(len(keys), func(k int) bool { return f.endsBefore(xs, ys, i, keys[k].i, c) })
		n += int64(len(keys) - idx)
	}
	return n
}
