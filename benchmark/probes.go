package main

import (
	"runtime"
	"time"

	"cdb/internal/constraint"
	"cdb/internal/db"
	"cdb/internal/relation"
	"cdb/internal/schema"
	"cdb/internal/vector"
)

const (
	probePairs      = 256 // candidate pairs the pair probes run on
	probeReps       = 5   // every probe loop is timed this often; the median is reported
	subtractMinuend = 16  // tuples the subtract probe subtracts from
	subtractSet     = 4   // overlapping tuples subtracted from each
)

// fresh copies a conjunction without its canonical flag and memo boxes,
// so that a probe pays for canonicalisation, envelope and vector form
// instead of finding them memoized.
func fresh(j constraint.Conjunction) constraint.Conjunction {
	return constraint.And(j.Constraints()...)
}

// timeLoop runs prepare (untimed) then timed, probeReps times, and
// returns the median time per call in nominal microseconds, timed making
// calls calls. It is 0 when there is nothing to call. The loops are too
// short to interrupt, so the speedometer's units run between them.
func timeLoop(sp *speedometer, calls int, prepare, timed func()) float64 {
	if calls == 0 {
		return 0
	}
	ivs := make([]interval, probeReps)
	sp.burst(calMinUnits / 2)
	for rep := range ivs {
		prepare()
		t0 := time.Now()
		timed()
		ivs[rep] = since(t0)
		sp.tick()
	}
	return median(sp.nominals(ivs)) * 1e3 / float64(calls)
}

type tuplePair struct{ a, b relation.Tuple }

// candidatePairs returns the first probePairs pairs, in nested-loop
// order, that the binary operators' filter stage would let through:
// identical on the shared relational attributes and not envelope-disjoint
// on the shared constraint attributes.
func candidatePairs(left, right *relation.Relation, sharedRel, sharedCon []string) []tuplePair {
	var out []tuplePair
	for _, a := range left.Tuples() {
		ea := a.Constraint().Canon().Envelope()
		for _, b := range right.Tuples() {
			if a.PartitionKey(sharedRel) != b.PartitionKey(sharedRel) {
				continue
			}
			if ea.Disjoint(b.Constraint().Canon().Envelope(), sharedCon) {
				continue
			}
			if out = append(out, tuplePair{a, b}); len(out) == probePairs {
				return out
			}
		}
	}
	return out
}

// probes times public kernel calls on the workload's own tuples and
// writes the constraint.*, vector.* and relation.partition_us metrics.
func probes(sp *speedometer, w workload, d *db.Database, m map[string]float64) {
	left, _ := d.Get(w.probeLeft)
	right, _ := d.Get(w.probeRight)
	var sharedRel, sharedCon []string
	for _, a := range left.Schema().Attrs() {
		if !right.Schema().Has(a.Name) {
			continue
		}
		if a.Kind == schema.Relational {
			sharedRel = append(sharedRel, a.Name)
		} else {
			sharedCon = append(sharedCon, a.Name)
		}
	}
	pairs := candidatePairs(left, right, sharedRel, sharedCon)
	n := len(pairs)

	// Merge + Canon, the refine step's first half.
	as, bs := make([]constraint.Conjunction, n), make([]constraint.Conjunction, n)
	merged := make([]constraint.Conjunction, n)
	copyPairs := func() {
		for i, p := range pairs {
			as[i], bs[i] = fresh(p.a.Constraint()), fresh(p.b.Constraint())
		}
	}
	mergeAll := func() {
		for i := range pairs {
			merged[i] = as[i].Merge(bs[i]).Canon()
		}
	}
	m["constraint.merge_canon_us"] = timeLoop(sp, n, copyPairs, mergeAll)
	var ms0, ms1 runtime.MemStats
	copyPairs()
	runtime.ReadMemStats(&ms0)
	mergeAll()
	runtime.ReadMemStats(&ms1)
	m["constraint.merge_canon_allocs"] = ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(n))

	// The decision: raw Fourier-Motzkin against a sat-cache hit on the
	// same merged conjunctions.
	m["constraint.sat_us"] = timeLoop(sp, n, func() {}, func() {
		for _, j := range merged {
			j.IsSatisfiable()
		}
	})
	cache := constraint.NewSatCache(0)
	for _, j := range merged {
		cache.Satisfiable(j)
	}
	m["constraint.satcache_hit_us"] = timeLoop(sp, n, func() {}, func() {
		for _, j := range merged {
			cache.Satisfiable(j)
		}
	})

	// Projection onto the attributes the workload's requests keep.
	unmerged := make([]constraint.Conjunction, n)
	m["constraint.project_us"] = timeLoop(sp, n, func() {
		for i, j := range merged {
			unmerged[i] = fresh(j)
		}
	}, func() {
		for _, j := range unmerged {
			j.Project(w.probeKeep...)
		}
	})

	// Difference's kernel: a tuple minus the tuples overlapping it. It
	// needs union-compatible relations.
	type subtraction struct {
		j  constraint.Conjunction
		ks []constraint.Conjunction
	}
	var subs []subtraction
	if left.Schema().Equal(right.Schema()) {
		for _, a := range left.Tuples() {
			if len(subs) == subtractMinuend {
				break
			}
			ea := a.Constraint().Canon().Envelope()
			var ks []constraint.Conjunction
			for _, b := range right.Tuples() {
				if len(ks) < subtractSet && a.SameRelationalPart(b) &&
					!ea.Disjoint(b.Constraint().Canon().Envelope(), sharedCon) {
					ks = append(ks, b.Constraint())
				}
			}
			if len(ks) > 0 {
				subs = append(subs, subtraction{a.Constraint(), ks})
			}
		}
	}
	freshSubs := make([]subtraction, len(subs))
	pieces := 0
	m["constraint.subtract_us"] = timeLoop(sp, len(subs), func() {
		for i, s := range subs {
			ks := make([]constraint.Conjunction, len(s.ks))
			for k := range ks {
				ks[k] = fresh(s.ks[k])
			}
			freshSubs[i] = subtraction{fresh(s.j), ks}
		}
	}, func() {
		pieces = 0
		for _, s := range freshSubs {
			pieces += len(constraint.SubtractAll(s.j, s.ks))
		}
	})
	m["constraint.subtract_pieces"] = ratio(float64(pieces), float64(len(subs)))

	// Per-tuple derived forms: envelope and vector form.
	var cons []constraint.Conjunction
	for _, r := range []*relation.Relation{left, right} {
		for _, t := range r.Tuples() {
			cons = append(cons, t.Constraint())
		}
	}
	work := make([]constraint.Conjunction, len(cons))
	m["constraint.envelope_us"] = timeLoop(sp, len(cons), func() {
		for i, j := range cons {
			work[i] = fresh(j)
		}
	}, func() {
		for _, j := range work {
			j.Envelope()
		}
	})
	m["vector.formof_us"] = timeLoop(sp, len(cons), func() {
		for i, j := range cons {
			work[i] = fresh(j).Canon()
		}
	}, func() {
		for _, j := range work {
			vector.FormOf(j)
		}
	})
	type formPair struct{ f, g *vector.Form }
	var forms []formPair
	for _, p := range pairs {
		f, g := vector.FormOf(p.a.Constraint().Canon()), vector.FormOf(p.b.Constraint().Canon())
		if f != nil && g != nil && f.XVar == g.XVar && f.YVar == g.YVar {
			forms = append(forms, formPair{f, g})
		}
	}
	m["vector.pairsat_us"] = timeLoop(sp, len(forms), func() {}, func() {
		for _, p := range forms {
			vector.PairSat(p.f, p.g)
		}
	})

	// The filter stage's relational-part partition of one side.
	const partitions = 20
	m["relation.partition_us"] = timeLoop(sp, partitions, func() {}, func() {
		for i := 0; i < partitions; i++ {
			relation.NewPartition(right.Tuples(), sharedRel)
		}
	})
}
