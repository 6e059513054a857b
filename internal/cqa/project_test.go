package cqa_test

import (
	"math/rand"
	"testing"

	"cdb/internal/constraint"
	"cdb/internal/cqa"
	"cdb/internal/datagen"
	"cdb/internal/exec"
	"cdb/internal/rational"
	"cdb/internal/relation"
	"cdb/internal/schema"
)

// referenceProject is the projection as the per-tuple Fourier–Motzkin loop
// computes it: every dropped constraint variable eliminated from every
// tuple, the residue canonicalised and — unless the tuple is a box — decided
// by the recorder, the kept bindings copied into a new map.
func referenceProject(t *testing.T, ec *exec.Context, r *relation.Relation, cols ...string) *relation.Relation {
	t.Helper()
	ps, err := r.Schema().Project(cols...)
	if err != nil {
		t.Fatal(err)
	}
	keep := map[string]bool{}
	for _, c := range cols {
		keep[c] = true
	}
	var dropCon []string
	for _, name := range r.Schema().ConstraintNames() {
		if !keep[name] {
			dropCon = append(dropCon, name)
		}
	}
	rec := ec.StartOp("project", r.Len())
	out := relation.New(ps)
	for _, tu := range r.Tuples() {
		con := tu.Constraint().Eliminate(dropCon...).Canon()
		if !tu.Constraint().IsBox() && !rec.Satisfiable(con) {
			continue
		}
		rvals := map[string]relation.Value{}
		for name, v := range tu.RVals() {
			if keep[name] {
				rvals[name] = v
			}
		}
		if err := out.Add(relation.NewTuple(rvals, con)); err != nil {
			t.Fatal(err)
		}
	}
	rec.AddOut(out.Len())
	rec.Done(false)
	return out
}

// TestProjectAwayEveryConstraintVar: a projection onto no constraint
// attribute decides each tuple that is not a box — one recorder decision on
// its own constraint part, a sat-cache hit once seen — instead of
// eliminating every variable and deciding the residue, and a box drops its
// bounds and asks nothing. On Query 3's R2 (the paper's `project R2 on
// name`), on random conjunctions (unsatisfiable ones among them) and on
// boxes, the output prints what the elimination loop prints, the warm
// decisions are as many and hit as often, the pool prints the same bytes,
// and a warm call on canonical inputs allocates at most two objects per
// output tuple beyond what any call costs: the kept bindings are one map
// per run of tuples that agree on them (a map is two objects), and nothing
// is eliminated. The elimination loop allocates some sixty a tuple on
// Query 3's R2, and three a box.
func TestProjectAwayEveryConstraintVar(t *testing.T) {
	land, owners, track := datagen.HurricaneRelations(8)
	r0, err := cqa.Join(nil, owners, land)
	if err == nil {
		r0, err = cqa.Join(nil, r0, track)
	}
	var r2 *relation.Relation
	if err == nil {
		r2, err = cqa.Select(nil, r0, cqa.Condition{ // a window of the benchmark's width
			cqa.AttrCmpConst("t", cqa.OpGe, rational.FromInt(4)), cqa.AttrCmpConst("t", cqa.OpLe, rational.FromInt(14))})
	}
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(35))
	random := relation.New(schema.MustNew(schema.Rel("id", schema.String), schema.Con("x"),
		schema.Rel("name", schema.String), schema.Con("y"), schema.Con("z")))
	for random.Len() < 200 {
		random.MustAdd(datagen.RandomTuple(rng, random.Schema()))
	}
	p := datagen.Scaled(10)
	p.Seed = 35
	for _, tc := range []struct {
		name    string
		r       *relation.Relation
		cols    []string
		ceiling float64 // allocations per output tuple; 0 = not checked
	}{
		{"query3-R2", r2, []string{"name"}, 2},
		{"random", datagen.Canonical(random), []string{"name"}, 2},
		// Not canonical: the sat-cache canonicalises each lookup, so only
		// the bytes and the counters are compared.
		{"random-raw", random, []string{"id", "name"}, 0},
		{"boxes", datagen.Canonical(datagen.BoxRelation(p, 100, 10)), []string{"id"}, 2},
	} {
		cache := constraint.NewSatCache(0)
		refEC, ec := exec.New(1), exec.New(1)
		refEC.SatCache, ec.SatCache = cache, cache
		project := func() *relation.Relation {
			out, err := cqa.Project(ec, tc.r, tc.cols...)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		referenceProject(t, refEC, tc.r, tc.cols...)
		project()
		refEC.Reset()
		ec.Reset()
		want := saved(t, referenceProject(t, refEC, tc.r, tc.cols...))
		out := project()
		if got := saved(t, out); got != want {
			t.Fatalf("%s: project prints\n%s\nthe elimination loop prints\n%s", tc.name, got, want)
		}
		pooled, err := cqa.Project(&exec.Context{Parallelism: 4, SeqThreshold: 1, SatCache: cache}, tc.r, tc.cols...)
		if err != nil {
			t.Fatal(err)
		}
		if saved(t, pooled) != want {
			t.Fatalf("%s: project on the pool prints other bytes than inline", tc.name)
		}
		ref, s := refEC.Stats()[0], ec.Stats()[0]
		if s.SatChecks != ref.SatChecks || s.CacheHits != ref.CacheHits || s.TuplesOut != ref.TuplesOut {
			t.Errorf("%s, warm: sat=%d hits=%d out=%d, the elimination loop sat=%d hits=%d out=%d",
				tc.name, s.SatChecks, s.CacheHits, s.TuplesOut, ref.SatChecks, ref.CacheHits, ref.TuplesOut)
		}
		if out.Len() == 0 || (tc.name == "random" && out.Len() == tc.r.Len()) {
			t.Fatalf("%s: %d of %d tuples kept: the fixture must keep some and, random, drop some",
				tc.name, out.Len(), tc.r.Len())
		}
		// What a call costs whatever its input — the projected schema, the
		// recorder, the output relation — is what projecting the empty
		// relation over the same schema costs; the ceiling is on the rest.
		empty := relation.New(tc.r.Schema())
		warm := func(ec *exec.Context, project func(*relation.Relation)) (fixed, total float64) {
			ec.Reset()
			fixed = testing.AllocsPerRun(10, func() { project(empty); ec.Reset() })
			total = testing.AllocsPerRun(10, func() { project(tc.r); ec.Reset() })
			return fixed, total
		}
		fixed, total := warm(ec, func(r *relation.Relation) {
			if _, err := cqa.Project(ec, r, tc.cols...); err != nil {
				t.Fatal(err)
			}
		})
		refFixed, refTotal := warm(refEC, func(r *relation.Relation) { referenceProject(t, refEC, r, tc.cols...) })
		perTuple := (total - fixed) / float64(out.Len())
		t.Logf("%s: %.0f allocations, %.0f of them per call, over %d output tuples = %.2f per tuple (elimination loop: %.2f; sat=%d)",
			tc.name, total, fixed, out.Len(), perTuple, (refTotal-refFixed)/float64(out.Len()), s.SatChecks)
		if tc.ceiling > 0 && perTuple > tc.ceiling {
			t.Errorf("%s, warm: %.0f allocations beyond the %.0f of a call over %d output tuples = %.2f per tuple, ceiling %v",
				tc.name, total-fixed, fixed, out.Len(), perTuple, tc.ceiling)
		}
	}
}
