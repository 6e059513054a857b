package cdb

import (
	"testing"

	"cdb/internal/calculus"
	"cdb/internal/constraint"
	"cdb/internal/cqa"
	"cdb/internal/datagen"
	"cdb/internal/exec"
	"cdb/internal/query"
	"cdb/internal/relation"
)

// work is the deterministic cost of one request: the candidate pairs its
// binary operators refined, the satisfiability decisions it made and the
// operator invocations it took.
type work struct{ pairs, sat, ops int64 }

// runFace evaluates one request on a fresh one-worker context with the
// default sat-cache — src as a rule program when rules is set, else as a
// query-language program run statement by statement, as a session runs it —
// and returns the normalised result with what it cost.
func runFace(t *testing.T, env cqa.Env, rules bool, src string) (*relation.Relation, work) {
	t.Helper()
	ec := exec.New(1)
	ec.SatCache = constraint.NewSatCache(0)
	var out *relation.Relation
	if rules {
		prog, err := calculus.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if out, err = prog.RunCtx(env, ec); err != nil {
			t.Fatal(err)
		}
	} else {
		prog, err := query.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range prog.Stmts {
			r, err := (&query.Program{Stmts: []query.Stmt{st}}).RunOptimizedCtx(env, ec)
			if err != nil {
				t.Fatal(err)
			}
			env[st.Target], out = r, r
		}
		out = out.NormalizeWith(ec.SatFunc())
	}
	var w work
	for _, st := range ec.Stats() {
		w.pairs += st.PairsTotal - st.PairsPruned
		w.sat += st.SatChecks
		w.ops++
	}
	return out, w
}

// TestRuleCostsWhatItsAlgebraCosts is the work gate on the calculus face: a
// rule is a join, so on the benchmark's 8 × 8 hurricane database the
// three-atom rule may refine and decide at most 1.5× what the paper's Query
// 3 does for the same answer, byte for byte, and the lookup workload's
// single-atom rule is the select and the project it means plus one rename.
// (Translated as renamed-apart cross products the first took 9.3× the pairs
// and 10.8× the decisions, the second 7 operators.)
func TestRuleCostsWhatItsAlgebraCosts(t *testing.T) {
	land, owners, track := datagen.HurricaneRelations(8)
	d := loadedDB(t, map[string]*relation.Relation{"Land": land, "Landownership": owners, "Hurricane": track})

	q3, q3w := runFace(t, d.Env(), false, "R0 = join Landownership and Land\nR1 = join R0 and Hurricane\n"+
		"R2 = select t >= 4, t <= 14 from R1\nR3 = project R2 on name")
	rule, rw := runFace(t, d.Env(), true,
		`hit(name) :- Landownership(name, t, id), Land(id, x, y), Hurricane(t, x, y), t >= 4, t <= 14.`)
	t.Logf("Query 3: %+v; three-atom rule: %+v", q3w, rw)
	if q3.Len() == 0 || rule.String() != q3.String() {
		t.Errorf("the rule and Query 3 differ:\n%s\nvs\n%s", rule, q3)
	}
	if 2*rw.pairs > 3*q3w.pairs || 2*rw.sat > 3*q3w.sat {
		t.Errorf("the rule refined %d pairs and made %d sat decisions; Query 3 took %d and %d, ceiling 1.5×",
			rw.pairs, rw.sat, q3w.pairs, q3w.sat)
	}

	sel, sw := runFace(t, d.Env(), false, `R = project (select landId = "p3_4", t >= 5, t <= 15 from Landownership) on name, t`)
	lookup, lw := runFace(t, d.Env(), true, `owned(name, t) :- Landownership(name, t, id), id = "p3_4", t >= 5, t <= 15.`)
	t.Logf("project(select): %+v; lookup rule: %+v", sw, lw)
	if sel.Len() == 0 || lookup.String() != sel.String() {
		t.Errorf("the lookup rule and its project(select) differ:\n%s\nvs\n%s", lookup, sel)
	}
	if lw.ops > 3 || lw.sat != sw.sat {
		t.Errorf("the lookup rule took %d operator invocations (ceiling 3) and %d sat decisions (its project(select) takes %d)",
			lw.ops, lw.sat, sw.sat)
	}
}

// TestRuleAtomOrderIsThePlanners: a rule's prepared atoms are scans of real
// relations, so the join chain it emits is one reorderJoinChain ranks with
// estimatePairs — writing the body in an expensive order (the t-overlap join
// first) costs what the cheap order costs, and answers the same bytes.
func TestRuleAtomOrderIsThePlanners(t *testing.T) {
	land, owners, track := datagen.HurricaneRelations(8)
	d := loadedDB(t, map[string]*relation.Relation{"Land": land, "Landownership": owners, "Hurricane": track})
	cheap, cw := runFace(t, d.Env(), true, `hit(name, t) :- Landownership(name, t, id), Land(id, x, y), Hurricane(t, x, y).`)
	dear, dw := runFace(t, d.Env(), true, `hit(name, t) :- Landownership(name, t, id), Hurricane(t, x, y), Land(id, x, y).`)
	t.Logf("cheap order: %+v; expensive order as written: %+v", cw, dw)
	if cheap.Len() == 0 || dear.String() != cheap.String() {
		t.Errorf("the two atom orders differ:\n%s\nvs\n%s", dear, cheap)
	}
	if 2*dw.pairs > 3*cw.pairs {
		t.Errorf("the expensive order refined %d pairs, the cheap one %d: the chain was not reordered", dw.pairs, cw.pairs)
	}
}
