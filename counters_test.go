package cdb

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"cdb/internal/calculus"
	"cdb/internal/constraint"
	"cdb/internal/cqa"
	"cdb/internal/datagen"
	"cdb/internal/db"
	"cdb/internal/exec"
	"cdb/internal/obs"
	"cdb/internal/query"
	"cdb/internal/rational"
	"cdb/internal/relation"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestCounterGolden pins the deterministic operator counters of the
// in-process replica of each benchmark workload's request (bench_test.go's
// warm benchmarks and BenchmarkDifferencePolygonMinus), at one worker,
// cold — a fresh exec.Context and a fresh sat-cache — and then warm, the
// same context again. Every obs.OpCounters row of every operator record is
// written by its table name to testdata/counters.golden (wall time and the
// Parallel flag are not deterministic and left out), with the size of the
// request's result; -update rewrites the file. A change that moves a line
// names the line and the reason.
//
// It is not parallel: the fm rows of one run must add up to that run's
// delta of the process-wide constraint.DecisionCount, so normalising a
// result makes no Fourier–Motzkin decision the operator rows do not show.
func TestCounterGolden(t *testing.T) {
	// Each request gets its own database, so no request runs on memos an
	// earlier one left on the tuples.
	hurricaneDB := func() *db.Database {
		land, owners, track := datagen.HurricaneRelations(8)
		return loadedDB(t, map[string]*relation.Relation{"Land": land, "Landownership": owners, "Hurricane": track})
	}
	boxDB := func() *db.Database {
		p := datagen.Paper()
		p.SizeMin, p.Seed = 50, 16
		p2 := p
		p2.Seed += 500
		return loadedDB(t, map[string]*relation.Relation{
			"A": datagen.ClusteredBoxRelation(p, 20, 1, 10, 77), "B": datagen.ClusteredBoxRelation(p2, 20, 1, 10, 77)})
	}
	c0 := benchClusteredPolygons(0, 2, datagen.PolygonRelation)
	d0 := benchClusteredPolygons(100, 2, datagen.PolygonRelation)
	land5, owners5, _ := datagen.HurricaneRelations(5)
	ge := func(v string, k int64) cqa.LinearAtom { return cqa.AttrCmpConst(v, cqa.OpGe, rational.FromInt(k)) }
	le := func(v string, k int64) cqa.LinearAtom { return cqa.AttrCmpConst(v, cqa.OpLe, rational.FromInt(k)) }

	// statements runs a query-language program statement by statement, as a
	// session does, and returns the last statement's result.
	statements := func(d *db.Database, src string) func(*exec.Context) (*relation.Relation, error) {
		prog, err := query.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		return func(ec *exec.Context) (*relation.Relation, error) {
			env, last := d.Env(), (*relation.Relation)(nil)
			for _, st := range prog.Stmts {
				r, err := (&query.Program{Stmts: []query.Stmt{st}}).RunOptimizedCtx(env, ec)
				if err != nil {
					return nil, err
				}
				env[st.Target], last = r, r
			}
			return last, nil
		}
	}
	rule, err := calculus.Parse("hit(name) :- Landownership(name, t, id), Land(id, x, y), Hurricane(t, x, y), t >= 0, t <= 10.")
	if err != nil {
		t.Fatal(err)
	}
	requests := []struct {
		name string
		run  func(*exec.Context) (*relation.Relation, error)
	}{
		{"hurricane query3 t=[0,10]", statements(hurricaneDB(), "R0 = join Landownership and Land\nR1 = join R0 and Hurricane\n"+
			"R2 = select t >= 0, t <= 10 from R1\nR3 = project R2 on name")},
		{"hurricane rule t=[0,10]", func() func(*exec.Context) (*relation.Relation, error) {
			d := hurricaneDB()
			return func(ec *exec.Context) (*relation.Relation, error) { return rule.RunCtx(d.Env(), ec) }
		}()},
		{"box-join join", statements(boxDB(), "R = join A and B")},
		{"box-join intersect", statements(boxDB(), "R = intersect A and B")},
		{"box-join project", statements(boxDB(), "R = project (join A and B) on x")},
		{"polygon-minus minus C0 and D0", func(ec *exec.Context) (*relation.Relation, error) { return cqa.DifferenceCtx(ec, c0, d0) }},
		{"lookup select owners", func(ec *exec.Context) (*relation.Relation, error) {
			return cqa.SelectCtx(ec, owners5, cqa.Condition{cqa.StrEq("landId", "p2_3"), ge("t", 12), le("t", 22)})
		}},
		{"lookup select land", func(ec *exec.Context) (*relation.Relation, error) {
			return cqa.SelectCtx(ec, land5, cqa.Condition{ge("x", 5), le("x", 17), ge("y", 10), le("y", 22)})
		}},
	}

	var buf bytes.Buffer
	for _, req := range requests {
		ec := exec.New(1)
		ec.SatCache = constraint.NewSatCache(0)
		for _, run := range []string{"cold", "warm"} {
			fm := constraint.DecisionCount()
			out, err := req.run(ec)
			if err != nil {
				t.Fatalf("%s, %s: %v", req.name, run, err)
			}
			atoms := 0
			for _, tu := range out.Tuples() {
				atoms += tu.Constraint().Len()
			}
			norm := out.NormalizeWith(ec.SatFunc())
			decisions := constraint.DecisionCount() - fm
			var fmRows int64
			fmt.Fprintf(&buf, "%s, %s: %d tuples (%d atoms), %d normalised\n", req.name, run, out.Len(), atoms, norm.Len())
			for _, s := range ec.Stats() {
				fmRows += s.FMDecisions
				line := []string{"  " + s.Op}
				for _, c := range obs.OpCounters {
					line = append(line, fmt.Sprintf("%s=%d", c.Name, *c.Field(&s)))
				}
				fmt.Fprintln(&buf, strings.Join(line, " "))
			}
			if fmRows != decisions {
				t.Errorf("%s, %s: the fm rows add up to %d, constraint.DecisionCount moved by %d", req.name, run, fmRows, decisions)
			}
			ec.Reset()
		}
	}

	const golden = "testdata/counters.golden"
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run go test -run TestCounterGolden -update . to create it)", err)
	}
	if got := buf.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("%s:%d\n got: %s\nwant: %s", golden, i+1, g, w)
			}
		}
	}
}
