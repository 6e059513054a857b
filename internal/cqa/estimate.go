package cqa

import (
	"cdb/internal/constraint"
	"cdb/internal/relation"
	"cdb/internal/schema"
)

// This file is the cardinality/selectivity side of the filter stage: it
// condenses one binary-operator input pair into the numbers the cost
// model (planner.go) decides with, built from the two filter mechanisms'
// own data structures — relation.Partition buckets for the relational
// part and memoized constraint.Envelope intervals for the constraint
// part. Because the estimates count exactly the pairs the filter stage
// can keep (bucket-matched ∧ per-attribute interval overlap), est is a
// true upper bound on the surviving candidates: the est_pairs ≥ act_pairs
// invariant EXPLAIN ANALYZE exposes and the property tests pin.

// pairStats is the filter stage's working set for one t1s × t2s pairing
// problem: the partitions and envelopes, built once here and reused by
// the enumeration, and the estimator's summary of them.
type pairStats struct {
	n, m       int                   // input sizes
	env1, env2 []constraint.Envelope // per-tuple envelopes of the constraint parts
	p1, p2     *relation.Partition   // relational-part buckets; nil with no shared relational attrs (every pair matches)
	relPairs   int64                 // pairs whose relational parts match (n·m with no shared relational attrs)
	overlap    map[string]int64      // per shared constraint attribute: pairs whose envelope intervals intersect
	sweepAttr  string                // the interval sweep's sort attribute ("" = none bounded on both sides)
	est        int64                 // min(relPairs, min over overlap): upper bound on surviving candidates
}

// estSweep bounds the pairs the interval sweep enumerates: overlaps on
// the sweep attribute, further capped by the bucket structure it runs in.
func (s pairStats) estSweep() int64 {
	if s.sweepAttr == "" {
		return s.relPairs
	}
	return min64(s.relPairs, s.overlap[s.sweepAttr])
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

// analyzePairing partitions both sides on the shared relational
// attributes, computes (memoized) envelopes and counts what the filter
// can keep.
func analyzePairing(t1s, t2s []relation.Tuple, sharedRel, sharedCon []string) pairStats {
	s := pairStats{n: len(t1s), m: len(t2s), env1: envelopes(t1s), env2: envelopes(t2s)}
	s.relPairs = int64(s.n) * int64(s.m)
	if len(sharedRel) > 0 {
		s.p1 = relation.NewPartition(t1s, sharedRel)
		s.p2 = relation.NewPartition(t2s, sharedRel)
		// Exact: the partitions were built on the same attribute list.
		s.relPairs = 0
		for _, key := range s.p1.Keys() {
			s.relPairs += int64(len(s.p1.Bucket(key))) * int64(len(s.p2.Bucket(key)))
		}
	}
	s.sweepAttr = chooseSweepAttr(sharedCon, s.env1, s.env2)
	s.est = s.relPairs
	if len(sharedCon) > 0 {
		s.overlap = make(map[string]int64, len(sharedCon))
		for _, a := range sharedCon {
			o := constraint.AttrOverlapCount(s.env1, s.env2, a)
			s.overlap[a] = o
			s.est = min64(s.est, o)
		}
	}
	return s
}

// estimatePairs is the estimator's bound on the candidates a join of two
// whole relations refines — what the join-chain reordering ranks by.
func estimatePairs(r1, r2 *relation.Relation) int64 {
	sharedRel, sharedCon := sharedAttrs(r1.Schema(), r2.Schema())
	return analyzePairing(r1.Tuples(), r2.Tuples(), sharedRel, sharedCon).est
}

func min64(a, b int64) int64 {
	if b < a {
		return b
	}
	return a
}
