package cqa

import (
	"slices"
	"sort"
	"sync"

	"cdb/internal/constraint"
	"cdb/internal/exec"
	"cdb/internal/relation"
	"cdb/internal/vector"
)

// This file is the filter stage of the binary operators' filter-and-refine
// split — one pipeline, consumed by join, intersect and difference alike —
// and the list of deciders the refine stage tries on each pair that
// survives it (deciders, below; difference's intersection pre-filter asks
// clipPair and then the pair lookup itself). The refine step — Merge+Canon
// plus a satisfiability decision per tuple pair, or the staircase
// subtraction in difference — is the quantifier-elimination cost that
// dominates CDB evaluation; the filter rejects pairs that provably cannot
// interact before any of it runs. It reads each input as an input
// (estimate.go): its constraint parts canonical (a no-op on loaded relations
// and operator outputs), bucketed and projected as below — built once per
// relation and pair of shared attribute lists and memoised on the relation,
// so an operator over stored relations builds none of it. It then uses
// two cooperating mechanisms:
//
//  1. relational-part hash partitioning (relation.Partition): pairs whose
//     shared relational attributes are not NULL-safe-identical can never
//     merge, so each side is bucketed on them, the two sides' buckets are
//     aligned on their keys, and only matching buckets pair (with no
//     shared relational attribute there is one bucket);
//  2. the frame (below): each side's memoised envelopes projected onto the
//     shared constraint attributes as columns of float keys.
//     Within a bucket, a pair with an empty interval on either side or
//     separated intervals in some column has an unsatisfiable merged
//     conjunction — rejected in at most 2k float comparisons (a float tie
//     broken exactly), no eliminator run.
//
// Each bucket's pairs are enumerated by one nested loop, every pair
// checked against the frame. Candidate enumeration is not where a CDB's
// time goes: the refine step's elimination is.
//
// The contract that keeps outputs byte-identical to the unfiltered nested
// loop: the surviving candidate set is exactly {bucket-matched pairs whose
// envelopes are not Disjoint} — the frame check is Envelope.Disjoint over
// the shared attributes — and the candidates are sorted into ascending
// flattened (i1·m + i2) order before the refine fan-out, which is the
// sequential nested-loop order. Every pruned pair is one the refine step
// would have rejected anyway, so pruning on and off, and every plan mode,
// produce the same bytes.

// pairPlan is the filter stage's output for one binary-operator call.
type pairPlan struct {
	t1s, t2s []relation.Tuple // the inputs, constraint parts canonical
	cands    []int            // surviving pairs as flattened indexes i1*m + i2, ascending
	total    int              // the dense candidate space |t1s|·|t2s|
	estPairs int64            // the bucket-matched pairs: an upper bound on len(cands)
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

// pairDeciders resolves the decider list for one operator call: PlanAuto
// runs the whole list, and PlanDense neither fast decider, leaving every
// pair to the cache and the eliminator (the reference).
//
// covered — the two sides range over the same constraint attributes — also
// gates env under auto. A selection's condition ranges over its input's own
// attributes; for join and intersect it means the two schemas share every
// constraint attribute. That is a cache-sharing heuristic, not a soundness
// condition on env: box pairs over variables the schemas do not share
// (hurricane's parcels × time intervals) are all pair-lookup hits in a warm
// session, and a hit hands back the same merged Conjunction, memoised
// envelope included, for the next join to reuse; a fresh merge does not.
// Measured on BenchmarkHurricaneQuery3Warm/one-worker (five interleaved
// runs of 300 iterations, 2-core host): with the condition off 1.72–2.10
// ms and 1 024 allocations per query, with it 0.81–1.08 ms and 255.
func pairDeciders(ec *exec.Context, covered bool) deciders {
	auto := ec.Plan() == exec.PlanAuto
	return deciders{env: auto && covered, clip: auto}
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
// same variable pair is decided by a separating edge (vector.PairSat) and
// fully disjoint variable pairs are satisfiable outright (two non-empty
// regions over independent variables always merge); with a form on the
// left only, c2's atoms clip it (vector.SatExtras). ok is false when it
// declines: a left side without a form is not its domain; forms over mixed
// variable pairs, and atoms the clipper cannot represent (an extra
// variable), are counted as a fallback.
func clipPair(rec *exec.OpRecorder, c1, c2 constraint.Conjunction) (sat, ok bool) {
	f1 := vector.FormOf(c1)
	if f1 == nil {
		return false, false
	}
	f2 := vector.FormOf(c2)
	switch {
	case f2 == nil:
		if sat, ok = vector.SatExtras(f1, c2.Constraints()); ok {
			rec.VectorHit(sat)
			return sat, true
		}
	case f1.XVar == f2.XVar && f1.YVar == f2.YVar:
		sat = vector.PairSat(f1, f2)
		rec.VectorHit(sat)
		return sat, true
	case f1.XVar != f2.XVar && f1.XVar != f2.YVar && f1.YVar != f2.XVar && f1.YVar != f2.YVar:
		rec.VectorHit(true)
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

// frame is one binary operator's k shared constraint attributes as columns
// 0…k−1, in lexicographic order, and the two inputs' envelopes projected
// onto them, as float keys (constraint.Keys): each input's side, memoised
// with it. Every envelope question asked afterwards — the pair check
// (disjoint) and the plan-time overlap counts (estimatePairs), both one
// column at a time through separated — compares keys in a column instead of
// probing an envelope by attribute name or comparing rationals.
// The comparison is exact: keys in strict float order are endpoints in that
// order (each key is its endpoint correctly rounded, and rounding is
// monotone), and a float tie is decided by the keys' open bits when both
// are exact, and otherwise by the exact intervals read back from the two
// tuples' envelopes (endsBefore).
type frame struct {
	cols   []string         // column c is attribute cols[c]
	l, r   side             // the left (t1s) and right (t2s) sides
	lt, rt []relation.Tuple // the tuples l and r were projected from, for the exact tie-break
}

// side is one input projected onto a frame. It holds no pointer the
// garbage collector has to follow into: its slices are of plain values.
type side struct {
	k     int
	keys  []constraint.Keys // tuple i's column-c keys at i·k + c; (-Inf, +Inf) where the envelope bounds nothing
	empty []bool            // tuple i has an empty interval in some column: it pairs with nothing
}

// newFrame is the frame of two inputs over the same shared attributes: their
// projections side by side.
func newFrame(l, r *input) frame {
	return frame{cols: l.cols, l: l.side, r: r.side, lt: l.ts, rt: r.ts}
}

// project lays ts out over the columns cols as a side.
func project(ts []relation.Tuple, cols []string) side {
	k := len(cols)
	s := side{k: k, keys: make([]constraint.Keys, len(ts)*k), empty: make([]bool, len(ts))}
	if k == 0 {
		return s // no column: no envelope to read
	}
	for i := range ts {
		env := ts[i].Constraint().Envelope()
		for c, a := range cols {
			key := env.Keys(a)
			s.keys[i*k+c] = key
			s.empty[i] = s.empty[i] || key.Bits&constraint.Empty != 0
		}
	}
	return s
}

// at returns tuple i's keys in column c.
func (s *side) at(i, c int) constraint.Keys { return s.keys[i*s.k+c] }

// disjoint is constraint.Envelope.Disjoint over the frame's columns: the
// pair (t1s[i], t2s[j]) cannot merge satisfiably when either side has an
// empty interval in some column, or some column's intervals are separated.
// Keys in strict float order decide inline; only a float tie pays for the
// call to separated, which breaks it exactly.
func (f *frame) disjoint(i, j int) bool {
	if f.l.empty[i] || f.r.empty[j] {
		return true
	}
	k := f.l.k
	x, y := f.l.keys[i*k:i*k+k], f.r.keys[j*k:j*k+k]
	for c := range x {
		if x[c].Hi < y[c].Lo || y[c].Hi < x[c].Lo ||
			(x[c].Hi == y[c].Lo || y[c].Hi == x[c].Lo) && f.separated(i, j, c) {
			return true
		}
	}
	return false
}

// separated reports whether left tuple i's and right tuple j's column-c
// intervals, both non-empty, are separated: one ends before the other
// starts. A float tie goes to endsBefore, which breaks it exactly.
func (f *frame) separated(i, j, c int) bool {
	x, y := f.l.at(i, c), f.r.at(j, c)
	return x.Hi < y.Lo || y.Hi < x.Lo ||
		x.Hi == y.Lo && f.endsBefore(&f.l, &f.r, i, j, c) ||
		y.Hi == x.Lo && f.endsBefore(&f.r, &f.l, j, i, c)
}

// endsBefore reports whether tuple i of side x lies entirely below tuple j
// of side y in column c, both non-empty, open endpoints respected
// (constraint.Interval.Intersects is false exactly when one of the two
// ends before the other): on the keys when they decide
// (constraint.Keys.Before), else on the exact intervals.
func (f *frame) endsBefore(x, y *side, i, j, c int) bool {
	if before, ok := x.at(i, c).Before(y.at(j, c)); ok {
		return before
	}
	xi, yj := f.interval(x, i, c), f.interval(y, j, c)
	if !xi.HasUpper || !yj.HasLower {
		return false
	}
	o := xi.Upper.Cmp(yj.Lower)
	return o < 0 || (o == 0 && (xi.UpperOpen || yj.LowerOpen))
}

// interval reads tuple i of side s's exact column-c interval back from its
// envelope: the unbounded Interval{} where the envelope bounds nothing.
func (f *frame) interval(s *side, i, c int) constraint.Interval {
	ts := f.rt
	if s == &f.l {
		ts = f.lt
	}
	iv, _ := ts[i].Constraint().Envelope().Interval(f.cols[c])
	return iv
}

// pairCandidates runs the filter stage over r1 × r2: read both as inputs
// over the shared attributes and align their partitions (analyzePairing,
// estimate.go), then check each bucket-matched pair against the frame (see
// the file comment).
func pairCandidates(r1, r2 *relation.Relation, sharedRel, sharedCon []string) pairPlan {
	stats := analyzePairing(r1, r2, sharedRel, sharedCon)
	m := len(stats.t2s)
	plan := pairPlan{t1s: stats.t1s, t2s: stats.t2s, total: len(stats.t1s) * m, estPairs: stats.relPairs}
	fr := &stats.fr
	// With no frame column every bucket-matched pair is a candidate; else
	// the frame keeps a share no count has read, so the list grows in a
	// pooled scratch list and is copied out once, at its length.
	var scratch *[]int
	if len(fr.cols) == 0 {
		plan.cands = make([]int, 0, stats.relPairs)
	} else {
		scratch = candBufs.Get().(*[]int)
		plan.cands = (*scratch)[:0]
	}
	for b, as := range stats.as {
		bs := stats.bs[b]
		for _, i := range as {
			for _, j := range bs {
				if !fr.disjoint(i, j) {
					plan.cands = append(plan.cands, i*m+j)
				}
			}
		}
	}
	// Buckets emit in bucket order; the refine fan-out must see the
	// sequential nested-loop order.
	sort.Ints(plan.cands)
	if scratch != nil {
		*scratch, plan.cands = plan.cands, slices.Clone(plan.cands)
		if cap(*scratch) <= maxPooledCands {
			candBufs.Put(scratch)
		}
	}
	return plan
}

// candBufs recycles pairCandidates' scratch lists. One past maxPooledCands
// entries is dropped, so that one huge operator does not pin its memory
// for the life of the process.
var candBufs = sync.Pool{New: func() any { return new([]int) }}

const maxPooledCands = 1 << 16
