package cqa

import (
	"slices"

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
// pair count: exact, and an upper bound on the candidates the frame keeps
// — the est_pairs ≥ act_pairs invariant EXPLAIN ANALYZE exposes.

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
// aligns their partitions and counts the bucket-matched pairs.
func analyzePairing(r1, r2 *relation.Relation, sharedRel, sharedCon []string) pairStats {
	l, r := inputOf(r1, sharedRel, sharedCon), inputOf(r2, sharedRel, sharedCon)
	s := pairStats{t1s: l.ts, t2s: r.ts, fr: newFrame(l, r)}
	s.as, s.bs = l.part.Buckets(), l.part.Align(r.part)
	for b := range s.as {
		s.relPairs += int64(len(s.as[b])) * int64(len(s.bs[b]))
	}
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
//
// Each column's count is a nested loop over the frame (overlapCount):
// O(n·m) key comparisons, paid once per plan and only on a chain of three
// or more base relations. With both inputs memoised (go test -bench, 2-core
// x86-64, three alternating runs), Query 3's track pair (192 × 8, three
// columns) costs 49–112 µs where a sort-and-search counter cost 71–74 µs;
// the sparse 512 × 512 box pair of the enumeration benchmarks (two columns,
// nearly every pair separated) costs 7.7–9.6 ms where it cost 0.8–1.2 ms.
func estimatePairs(r1, r2 *relation.Relation) int64 {
	sharedRel, sharedCon := sharedAttrs(r1.Schema(), r2.Schema())
	s := analyzePairing(r1, r2, sharedRel, sharedCon)
	est := s.relPairs
	for c := range s.fr.cols {
		est = min(est, s.fr.overlapCount(c))
	}
	return est
}

// overlapCount returns the exact number of pairs (i, j) whose column-c
// intervals intersect (Interval.Intersects semantics: an unbounded entry
// meets every non-empty one, an empty one meets nothing): both non-empty
// and not separated. Because the frame check rejects exactly the pairs some
// column separates or some empty interval excludes, this is an upper bound
// on the pairs surviving it.
func (f *frame) overlapCount(c int) int64 {
	var n int64
	for i := range f.l.empty {
		if f.l.at(i, c).Bits&constraint.Empty != 0 {
			continue
		}
		for j := range f.r.empty {
			if f.r.at(j, c).Bits&constraint.Empty == 0 && !f.separated(i, j, c) {
				n++
			}
		}
	}
	return n
}
