package cqa

import (
	"slices"
	"sort"

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
// interact before any of it runs. It first canonicalises both inputs'
// constraint parts, once per operator (a no-op on loaded relations and
// operator outputs), then uses three cooperating mechanisms:
//
//  1. relational-part hash partitioning (relation.Partition): pairs whose
//     shared relational attributes are not NULL-safe-identical can never
//     merge, so the left side is bucketed once, the right side is matched
//     into the same buckets, and only matching buckets pair (with no
//     shared relational attribute there is one bucket);
//  2. the frame (below): each side's memoised envelopes projected once
//     onto the shared constraint attributes as columns. Within a bucket,
//     a pair with an empty interval on either side or separated intervals
//     in some column has an unsatisfiable merged conjunction — rejected
//     in at most k interval comparisons, no eliminator run;
//  3. switched enumeration: within a bucket the candidate pairs are
//     enumerated by the dense nested loop or by the interval sweep (sort
//     both sides on one column's intervals, plane-sweep the overlaps), as
//     resolveStrategy (planner.go) decided. Under PlanAuto, buckets below
//     sweepCrossover still run dense; a forced PlanMode disables that
//     escape so equivalence tests exercise the enumeration they asked for.
//
// The contract that keeps outputs byte-identical to the dense nested loop:
// the surviving candidate set is exactly {bucket-matched pairs whose
// envelopes are not Disjoint}, whichever enumeration ran — the frame check
// is Envelope.Disjoint over the shared attributes, the sweep is a
// conservative superset pass (closed-endpoint overlap in one column) with
// the full frame check applied to every emitted pair — and the candidates
// are sorted into ascending flattened (i1·m + i2) order before the refine
// fan-out, which is the sequential nested-loop order. Every pruned pair is
// one the refine step would have rejected anyway, so pruning on and off,
// and every mode, produce the same bytes.

// pairPlan is the filter stage's output for one binary-operator call.
type pairPlan struct {
	t1s, t2s []relation.Tuple // the inputs, constraint parts canonical
	cands    []int            // surviving pairs as flattened indexes i1*m + i2, ascending
	total    int              // the dense candidate space |t1s|·|t2s|
	enum     string           // how candidates were enumerated: exec.PlanDense or exec.PlanSweep
	estPairs int64            // the estimator's upper bound on surviving candidates
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

// frame is one binary operator's k shared constraint attributes as columns
// 0…k−1, in lexicographic order, and each side's memoised envelopes
// projected onto them once. Every envelope question the filter stage asks
// afterwards — the pair check, the sweep's intervals, the sweep-column
// choice, the overlap counts — reads a column instead of probing a map by
// attribute name.
type frame struct {
	cols []string      // column c is attribute cols[c]
	l, r side          // the left (t1s) and right (t2s) sides
	keys []endpointKey // before's scratch, reused across the columns
}

// side is one input projected onto a frame.
type side struct {
	k     int
	ivs   []constraint.Interval // tuple i's interval in column c at i·k + c; Interval{} (unbounded) where the envelope bounds nothing
	empty []bool                // tuple i has an empty interval in some column: it pairs with nothing
}

// newFrame lays out the frame over sharedCon and projects both sides.
func newFrame(t1s, t2s []relation.Tuple, sharedCon []string) frame {
	cols := append([]string{}, sharedCon...)
	sort.Strings(cols) // column order, hence every tie-break, whatever the schema order
	return frame{cols: cols, l: project(t1s, cols), r: project(t2s, cols)}
}

func project(ts []relation.Tuple, cols []string) side {
	k := len(cols)
	s := side{k: k, ivs: make([]constraint.Interval, len(ts)*k), empty: make([]bool, len(ts))}
	for i := range ts {
		for c, a := range cols {
			if iv, ok := ts[i].Constraint().Envelope().Interval(a); ok {
				s.ivs[i*k+c] = iv
				s.empty[i] = s.empty[i] || iv.IsEmpty()
			}
		}
	}
	return s
}

// at returns tuple i's interval in column c.
func (s *side) at(i, c int) *constraint.Interval { return &s.ivs[i*s.k+c] }

// disjoint is constraint.Envelope.Disjoint over the frame's columns: the
// pair (t1s[i], t2s[j]) cannot merge satisfiably when either side has an
// empty interval in some column, or some column's intervals are separated.
func (f *frame) disjoint(i, j int) bool {
	if f.l.empty[i] || f.r.empty[j] {
		return true
	}
	k := f.l.k
	x, y := f.l.ivs[i*k:i*k+k], f.r.ivs[j*k:j*k+k]
	for c := range x {
		if endsBefore(&x[c], &y[c]) || endsBefore(&y[c], &x[c]) {
			return true
		}
	}
	return false
}

// endsBefore reports whether non-empty x lies entirely below non-empty y,
// open endpoints respected (constraint.Interval.Intersects is false
// exactly when one of the two ends before the other).
func endsBefore(x, y *constraint.Interval) bool {
	if !x.HasUpper || !y.HasLower {
		return false
	}
	c := x.Upper.Cmp(y.Lower)
	return c < 0 || (c == 0 && (x.UpperOpen || y.LowerOpen))
}

// sweepColumn picks the column the interval sweep sorts on: the one where
// the most tuples on both sides carry two-sided envelope bounds (score =
// bounded₁·bounded₂ — a proxy for how selective sorting on that column
// will be). Returns -1 when no column is bounded on both sides; the sweep
// would then degenerate to the dense loop anyway.
//
// Tie-breaking is deterministic and documented: columns are in
// lexicographic attribute order (the schema's declaration order never
// matters) and a later column replaces the incumbent only with a strictly
// greater score, so on a tie the lexicographically first attribute among
// the highest-scoring ones wins. TestSweepColumnTieBreak pins this.
func (f *frame) sweepColumn() int {
	best, bestScore := -1, int64(0)
	for c := range f.cols {
		if score := f.l.count(c, twoSided) * f.r.count(c, twoSided); score > bestScore { // strict: ties keep the lex-first incumbent
			best, bestScore = c, score
		}
	}
	return best
}

func twoSided(iv *constraint.Interval) bool { return iv.HasLower && iv.HasUpper }

// count counts the tuples whose column-c interval satisfies pred.
func (s *side) count(c int, pred func(*constraint.Interval) bool) int64 {
	var n int64
	for i := range s.empty {
		if pred(s.at(i, c)) {
			n++
		}
	}
	return n
}

// pairCandidates runs the filter stage over t1s × t2s: canonicalise,
// partition on the shared relational attributes and project the frame
// (analyzePairing, estimate.go), resolve the strategy (planner.go), then
// enumerate candidates per bucket (see the file comment).
func pairCandidates(ec *exec.Context, t1s, t2s []relation.Tuple, sharedRel, sharedCon []string) pairPlan {
	m := len(t2s)
	stats := analyzePairing(t1s, t2s, sharedRel, sharedCon)
	mode := ec.Plan()
	// est bounds the survivors from above (est_pairs ≥ act_pairs), so the
	// candidate list is allocated once.
	plan := pairPlan{t1s: stats.t1s, t2s: stats.t2s, total: len(t1s) * m, estPairs: stats.est,
		enum: resolveStrategy(mode, stats), cands: make([]int, 0, stats.est)}
	fr := &stats.fr
	auto := mode == exec.PlanAuto
	emit := func(i, j int) {
		if !fr.disjoint(i, j) {
			plan.cands = append(plan.cands, i*m+j)
		}
	}
	runBucket := func(as, bs []int) {
		if plan.enum == exec.PlanSweep && !(auto && len(as)*len(bs) < sweepCrossover) {
			sweepPairs(fr, stats.sweepCol, as, bs, emit)
			return
		}
		for _, i := range as {
			for _, j := range bs {
				emit(i, j)
			}
		}
	}
	for b, as := range stats.as {
		if len(stats.bs[b]) > 0 {
			runBucket(as, stats.bs[b])
		}
	}
	// Buckets emit in bucket order; the refine fan-out must see the
	// sequential nested-loop order.
	sort.Ints(plan.cands)
	return plan
}

// sweepPairs enumerates, by a two-pointer sorted merge over the column-c
// intervals, every (i ∈ as, j ∈ bs) pair whose closed intervals overlap,
// calling emit exactly once per such pair. Open endpoints are treated as
// closed here — a conservative superset that the exact frame check inside
// emit narrows — so no pair the dense loop would keep is ever missed.
// Tuples with an empty interval in any column are dropped up front; the
// dense path drops them too (the frame check rejects them on sight),
// keeping the two candidate sets identical.
func sweepPairs(fr *frame, c int, as, bs []int, emit func(i, j int)) {
	sa, sb := sweepItems(&fr.l, c, as), sweepItems(&fr.r, c, bs)
	i, j := 0, 0
	for i < len(sa) && j < len(sb) {
		a, b := fr.l.at(sa[i], c), fr.r.at(sb[j], c)
		if loCmp(b, a) >= 0 { // sa[i] starts first (ties go to the a side)
			for k := j; k < len(sb) && startsBeforeEnd(fr.r.at(sb[k], c), a); k++ {
				emit(sa[i], sb[k])
			}
			i++
		} else {
			for k := i; k < len(sa) && startsBeforeEnd(fr.l.at(sa[k], c), b); k++ {
				emit(sa[k], sb[j])
			}
			j++
		}
	}
}

// sweepItems returns the idxs without an empty interval, sorted by their
// column-c interval's start, -∞ first. The order among equal starts does
// not matter: each pair is emitted once whichever comes first, and the
// candidates are sorted after.
func sweepItems(s *side, c int, idxs []int) []int {
	out := make([]int, 0, len(idxs))
	for _, i := range idxs {
		if !s.empty[i] {
			out = append(out, i)
		}
	}
	slices.SortFunc(out, func(a, b int) int { return loCmp(s.at(a, c), s.at(b, c)) })
	return out
}

// loCmp is the sweep's order on interval starts: -∞ first, then by start
// value.
func loCmp(a, b *constraint.Interval) int {
	switch {
	case !a.HasLower && !b.HasLower:
		return 0
	case !a.HasLower:
		return -1
	case !b.HasLower:
		return 1
	}
	return a.Lower.Cmp(b.Lower)
}

// startsBeforeEnd reports x.lo ≤ y.hi under closed-endpoint semantics
// with infinities — the sweep's conservative overlap half-condition (the
// other half, y.lo ≤ x.hi, is implied by the merge order).
func startsBeforeEnd(x, y *constraint.Interval) bool {
	if !x.HasLower || !y.HasUpper {
		return true
	}
	return x.Lower.Cmp(y.Upper) <= 0
}
