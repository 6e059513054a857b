package cqa

import (
	"slices"
	"sort"

	"cdb/internal/constraint"
	"cdb/internal/exec"
	"cdb/internal/rational"
	"cdb/internal/relation"
	"cdb/internal/vector"
)

// This file is the filter stage of the binary operators' filter-and-refine
// split — one pipeline, consumed by join, intersect and difference alike —
// and the list of deciders the refine stage tries on each pair that
// survives it (deciders, below). The refine step — Merge+Canon plus a
// satisfiability decision per tuple pair, or the staircase subtraction in
// difference — is the quantifier-elimination cost that dominates CDB
// evaluation; the filter rejects pairs that provably cannot interact
// before any of it runs, using three cooperating mechanisms:
//
//  1. relational-part hash partitioning (relation.Partition): pairs whose
//     shared relational attributes are not NULL-safe-identical can never
//     merge, so each side is bucketed once and only matching buckets pair;
//  2. memoized envelopes (constraint.Envelope): within a bucket, a pair
//     whose envelopes are disjoint on a shared constraint attribute has an
//     unsatisfiable merged conjunction — rejected in O(shared attrs)
//     rational comparisons, no eliminator run;
//  3. switched enumeration: within a bucket the candidate pairs are
//     enumerated by the dense nested loop or by the interval sweep (sort
//     both sides on one attribute's envelope interval, plane-sweep the
//     overlaps), as resolveStrategy (planner.go) decided. Under PlanAuto,
//     buckets below sweepCrossover still run dense; a forced PlanMode
//     disables that escape so equivalence tests exercise the enumeration
//     they asked for.
//
// The contract that keeps outputs byte-identical to the dense nested loop:
// the surviving candidate set is exactly {bucket-matched pairs whose
// envelopes are not Disjoint}, whichever enumeration ran — the sweep is a
// conservative superset pass (closed-endpoint overlap on one attribute)
// with the full Disjoint check applied to every emitted pair — and the
// candidates are sorted into ascending flattened (i1·m + i2) order before
// the refine fan-out, which is the sequential nested-loop order. Every
// pruned pair is one the refine step would have rejected anyway, so
// pruning on and off, and every mode, produce the same bytes.

// pairPlan is the filter stage's output for one binary-operator call.
type pairPlan struct {
	cands    []int  // surviving pairs as flattened indexes i1*m + i2, ascending
	total    int    // the dense candidate space |t1s|·|t2s|
	enum     string // how candidates were enumerated: exec.PlanDense or exec.PlanSweep
	estPairs int64  // the estimator's upper bound on surviving candidates
}

// pruned returns how many pairs the filter rejected.
func (p pairPlan) pruned() int { return p.total - len(p.cands) }

// deciders is the refine stage's ordered list of exact per-pair deciders,
// as the two switches in front of the one that is always there. A pair —
// two tuples' constraint parts in join and intersect, a tuple's and the
// condition's in select — is answered by the first decider it is in the
// domain of (decide), and each answer is counted on the operator's recorder
// (env, vec, sat):
//
//	env   both sides are non-empty boxes (constraint.IsBox): BoxMerge reads
//	      the verdict off the merged bounds, exact for any two boxes, and
//	      the merge is the interval intersection — no clip, no Merge+Canon,
//	      no cache traffic;
//	clip  the left side carries a polygon form (vector.FormOf): exact
//	      clipping (clipPair); in difference, the minuend's form scopes the
//	      whole staircase;
//	—     the sat-cache's pair lookup, else Fourier–Motzkin.
//
// A decider that cannot decide a pair declines it to the next; none reads
// as unsatisfiable.
type deciders struct{ env, clip bool }

// forceDecline makes the env or the clip decider decline every pair. Only
// tests set it: what it would have answered must come out of the next.
var forceDecline deciders

// pairDeciders resolves the decider list for one operator call. PlanDense
// and PlanSweep leave every pair to the cache and the eliminator (the
// reference), PlanVector switches env off so that boxes are clipped too,
// PlanAuto runs the whole list.
//
// covered — the two sides range over the same constraint attributes — also
// gates env under auto. A selection's condition ranges over its input's own
// attributes; for join and intersect it means the two schemas share every
// constraint attribute. That is a cache-sharing heuristic, not a soundness
// condition on env: box pairs over variables the schemas do not share
// (hurricane's parcels × time intervals) are all pair-lookup hits in a warm
// session, and a hit hands back the same merged Conjunction, memoised
// envelope included, for the next join to reuse; a fresh merge does not.
// Measured with the condition off: hurricane p50 1.905, 1.919, 1.894 ms
// against 1.49 ms.
func pairDeciders(ec *exec.Context, covered bool) deciders {
	mode := ec.Plan()
	return deciders{
		env:  mode == exec.PlanAuto && covered && !forceDecline.env,
		clip: (mode == exec.PlanAuto || mode == exec.PlanVector) && !forceDecline.clip,
	}
}

// decide answers the pair (a, b) by the first decider of dec that takes it
// and returns a.Merge(b).Canon() when it is satisfiable (the conjunction is
// meaningless otherwise). Every decider emits that same conjunction, so the
// caller's output bytes do not depend on which one ran.
func (dec deciders) decide(rec *exec.OpRecorder, a, b constraint.Conjunction) (constraint.Conjunction, bool) {
	if dec.env && a.IsBox() && b.IsBox() {
		con, sat := constraint.BoxMerge(a, b)
		rec.EnvHit(sat)
		return con, sat
	}
	if dec.clip {
		if sat, ok := clipPair(rec, a, b); ok {
			if !sat {
				return constraint.Conjunction{}, false
			}
			return a.Merge(b).Canon(), true
		}
	}
	return rec.SatisfiablePair(a, b)
}

// clipPair is the clip decider. With a polygon form on both sides, the
// same variable pair is clipped (vector.PairSat) and fully disjoint
// variable pairs are satisfiable outright (two non-empty regions over
// independent variables always merge); with a form on the left only, c2's
// atoms clip it (vector.SatExtras). ok is false when it declines: a left
// side without a form is not its domain; forms over mixed variable pairs,
// and atoms the clipper cannot decide exactly (an extra variable, a strict
// degenerate one), are counted as a fallback.
func clipPair(rec *exec.OpRecorder, c1, c2 constraint.Conjunction) (sat, ok bool) {
	f1 := vector.FormOf(c1)
	if f1 == nil {
		return false, false
	}
	f2 := vector.FormOf(c2)
	switch {
	case f2 == nil:
		if sat, ok = vector.SatExtras(f1, c2.Constraints()); ok {
			rec.VectorHit(sat, false)
			return sat, true
		}
	case f1.XVar == f2.XVar && f1.YVar == f2.YVar:
		sat, reject := vector.PairSat(f1, f2)
		rec.VectorHit(sat, reject)
		return sat, true
	case f1.XVar != f2.XVar && f1.XVar != f2.YVar && f1.YVar != f2.XVar && f1.YVar != f2.YVar:
		rec.VectorHit(true, false)
		return true, true
	}
	rec.VectorFallback()
	return false, false
}

// row returns the candidates of left tuple i, as flattened indexes: cands
// is ascending, so they are the contiguous run in [i·m, (i+1)·m).
func (p pairPlan) row(i, m int) []int {
	return p.cands[sort.SearchInts(p.cands, i*m):sort.SearchInts(p.cands, (i+1)*m)]
}

// envelopes computes (memoized) envelopes for every tuple's constraint part.
func envelopes(ts []relation.Tuple) []constraint.Envelope {
	out := make([]constraint.Envelope, len(ts))
	for i := range ts {
		out[i] = ts[i].Constraint().Envelope()
	}
	return out
}

// pairCandidates runs the filter stage over t1s × t2s: partition on the
// shared relational attributes and analyze the pairing (estimate.go),
// resolve the strategy (planner.go), then enumerate candidates per bucket
// (see the file comment).
func pairCandidates(ec *exec.Context, t1s, t2s []relation.Tuple, sharedRel, sharedCon []string) pairPlan {
	n, m := len(t1s), len(t2s)
	stats := analyzePairing(t1s, t2s, sharedRel, sharedCon)
	mode := ec.Plan()
	plan := pairPlan{total: n * m, estPairs: stats.est, enum: resolveStrategy(mode, stats)}
	env1, env2 := stats.env1, stats.env2
	auto := mode == exec.PlanAuto
	emit := func(i, j int) {
		if !env1[i].Disjoint(env2[j], sharedCon) {
			plan.cands = append(plan.cands, i*m+j)
		}
	}
	runBucket := func(as, bs []int) {
		if plan.enum == exec.PlanSweep && !(auto && len(as)*len(bs) < sweepCrossover) {
			sweepPairs(stats.sweepAttr, as, bs, env1, env2, emit)
			return
		}
		for _, i := range as {
			for _, j := range bs {
				emit(i, j)
			}
		}
	}
	if stats.p1 == nil {
		as, bs := make([]int, n), make([]int, m)
		for i := range as {
			as[i] = i
		}
		for j := range bs {
			bs[j] = j
		}
		runBucket(as, bs)
	} else {
		for _, key := range stats.p1.Keys() {
			bs := stats.p2.Bucket(key)
			if len(bs) == 0 {
				continue
			}
			runBucket(stats.p1.Bucket(key), bs)
		}
	}
	// Buckets emit in bucket order; the refine fan-out must see the
	// sequential nested-loop order.
	sort.Ints(plan.cands)
	return plan
}

// chooseSweepAttr picks the shared constraint attribute the interval
// sweep sorts on: the one where the most tuples on both sides carry
// two-sided envelope bounds (score = bounded₁·bounded₂ — a proxy for how
// selective sorting on that attribute will be). Returns "" when no
// attribute is bounded on both sides; the sweep would then degenerate to
// the dense loop anyway.
//
// Tie-breaking is deterministic and documented: candidates are visited
// in lexicographic attribute order (the schema's declaration order never
// matters) and a later attribute replaces the incumbent only with a
// strictly greater score, so on a tie the lexicographically first
// attribute among the highest-scoring ones wins. The regression test
// TestChooseSweepAttrTieBreak pins this.
func chooseSweepAttr(sharedCon []string, env1, env2 []constraint.Envelope) string {
	attrs := append([]string{}, sharedCon...)
	sort.Strings(attrs) // deterministic choice whatever the schema order
	best, bestScore := "", 0
	for _, a := range attrs {
		score := countBounded(env1, a) * countBounded(env2, a)
		if score > bestScore { // strict: ties keep the lex-first incumbent
			best, bestScore = a, score
		}
	}
	return best
}

func countBounded(envs []constraint.Envelope, attr string) int {
	n := 0
	for _, e := range envs {
		if iv, ok := e.Interval(attr); ok && iv.HasLower && iv.HasUpper {
			n++
		}
	}
	return n
}

// sweepItem is one tuple's envelope interval in the sweep attribute.
// A missing bound reads as the corresponding infinity.
type sweepItem struct {
	idx          int
	lo, hi       rational.Rat
	hasLo, hasHi bool
}

// sweepPairs enumerates, by a two-pointer sorted merge over the envelope
// intervals of attr, every (i ∈ as, j ∈ bs) pair whose closed intervals
// overlap, calling emit exactly once per such pair. Open endpoints are
// treated as closed here — a conservative superset that the exact
// Disjoint check inside emit narrows — so no pair the dense loop would
// keep is ever missed. Tuples with an empty interval in attr are dropped
// up front; the dense path drops them too (Disjoint reports empty
// intervals on sight), keeping the two candidate sets identical.
func sweepPairs(attr string, as, bs []int, env1, env2 []constraint.Envelope, emit func(i, j int)) {
	sa := sweepItems(attr, as, env1)
	sb := sweepItems(attr, bs, env2)
	i, j := 0, 0
	for i < len(sa) && j < len(sb) {
		if loCmp(sb[j], sa[i]) >= 0 { // sa[i] starts first (ties go to the a side)
			a := sa[i]
			for k := j; k < len(sb) && startsBeforeEnd(sb[k], a); k++ {
				emit(a.idx, sb[k].idx)
			}
			i++
		} else {
			b := sb[j]
			for k := i; k < len(sa) && startsBeforeEnd(sa[k], b); k++ {
				emit(sa[k].idx, b.idx)
			}
			j++
		}
	}
}

// sweepItems extracts and sorts one side's intervals by start, -∞ first.
func sweepItems(attr string, idxs []int, envs []constraint.Envelope) []sweepItem {
	out := make([]sweepItem, 0, len(idxs))
	for _, idx := range idxs {
		iv, ok := envs[idx].Interval(attr)
		if ok && iv.IsEmpty() {
			continue // unsatisfiable on its own; the dense path prunes it via Disjoint
		}
		it := sweepItem{idx: idx}
		if ok {
			it.lo, it.hasLo = iv.Lower, iv.HasLower
			it.hi, it.hasHi = iv.Upper, iv.HasUpper
		}
		out = append(out, it)
	}
	slices.SortFunc(out, loCmp)
	return out
}

// loCmp is the sweep's total order on interval starts: -∞ first, then by
// start value, ties by tuple index.
func loCmp(a, b sweepItem) int {
	if !a.hasLo || !b.hasLo {
		if a.hasLo != b.hasLo {
			if !a.hasLo {
				return -1
			}
			return 1
		}
		return a.idx - b.idx
	}
	if c := a.lo.Cmp(b.lo); c != 0 {
		return c
	}
	return a.idx - b.idx
}

// startsBeforeEnd reports x.lo ≤ y.hi under closed-endpoint semantics
// with infinities — the sweep's conservative overlap half-condition (the
// other half, y.lo ≤ x.hi, is implied by the merge order).
func startsBeforeEnd(x, y sweepItem) bool {
	if !x.hasLo || !y.hasHi {
		return true
	}
	return x.lo.Cmp(y.hi) <= 0
}
