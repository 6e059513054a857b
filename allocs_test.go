package cdb

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"cdb/internal/constraint"
	"cdb/internal/cqa"
	"cdb/internal/datagen"
	"cdb/internal/exec"
	"cdb/internal/rational"
	"cdb/internal/relation"
	"cdb/internal/schema"
)

// The allocation ledger, testdata/allocs.golden, holds what a request
// allocates, in objects and in KB: one line per request, in one section per
// test that measures it (docs/TESTING.md lists what each holds). A line
// runs at one worker with a session sat-cache unless its name says
// otherwise. Each figure is the least of ten runs, each counted as
// testing.AllocsPerRun counts (runtime.MemStats deltas at GOMAXPROCS 1):
// other goroutines, and a collection that empties a sync.Pool, only ever
// add. A cold run is the first on a freshly built request table and
// context, after two collections have emptied every sync.Pool; a warm run
// repeats the request on the same context.
//
// A line that rises by more than ⌈1 %⌉ of its value (at least one
// allocation or one KB) fails; one that falls passes and asks for -update,
// which rewrites the sections of the tests that run; a missing or an extra
// line, or a section no test measures, fails. Under -race, where a
// sync.Pool drops what it is handed, only the set of lines is compared. The
// header names the toolchain that wrote the ledger, and a failure names it
// beside the one running. An operator that runs on the pool at one worker,
// or inline at two, fails too.

// ledgerTests are the ledger's sections, in the order the file holds them.
var ledgerTests = []string{"TestAllocLedger", "TestBoxJoinWarmBytes", "TestDifferencePolygonMinusAllocs", "TestNormalizeAllocs"}

// TestAllocLedger measures every request of the request table
// (TestCounterGolden's) but polygon-minus's, cold and warm, each with its
// normalisation as the session runs it; Query 3 through the server handler
// (BenchmarkHurricaneServer/one-session's request); and two joins whose
// every candidate pair is remembered — Query 3's first join, then its
// result ⋈ a storm corridor — at one worker, at two and on inputs without
// canonical forms, which must print the same bytes.
func TestAllocLedger(t *testing.T) {
	l := newLedger(t)
	l.requests(func(name string) bool { return !strings.HasPrefix(name, "polygon-minus ") })

	c := newHandlerClient(t, hurricaneDB(t))
	body := query3Body(c.open(), 0)
	l.warm("server query3 t=[0,10] one-session", nil, func() { c.query3(body) })

	land, owners, _ := datagen.HurricaneRelations(8)
	corridor := stormCorridor(8*6, 40, 8)
	var canonical string
	for _, leg := range []struct {
		name    string
		workers int
	}{{"one-worker", 1}, {"two-workers", 2}, {"raw", 1}} {
		in := [3]*relation.Relation{owners, land, corridor}
		if leg.name == "raw" {
			for i, r := range in {
				in[i] = nonCanonical(t, r)
			}
		}
		ec := session(leg.workers)
		var out *relation.Relation
		l.warm("corridor joins "+leg.name, ec, func() {
			r0, err := cqa.Join(ec, in[0], in[1])
			if err == nil {
				out, err = cqa.Join(ec, r0, in[2])
			}
			if err != nil {
				t.Fatal(err)
			}
		})
		if canonical == "" {
			canonical = out.String()
		} else if out.String() != canonical {
			t.Errorf("corridor joins %s: the result prints other bytes than at one worker on canonical inputs", leg.name)
		}
	}
	l.check()
}

// TestBoxJoinWarmBytes measures the box-join requests on the pool, at two
// workers so that the pool runs at the one processor the count is taken
// at: the fan-out writes into one buffer of one result per candidate.
func TestBoxJoinWarmBytes(t *testing.T) {
	l := newLedger(t)
	for _, req := range requests(t) {
		if strings.HasPrefix(req.name, "box-join ") {
			ec := session(2)
			l.warm(req.name+" pool=2", ec, l.serve(req, ec))
		}
	}
	l.check()
}

// TestDifferencePolygonMinusAllocs measures the table's polygon-minus
// request, `minus C0 and D0`, cold and warm, with its normalisation.
func TestDifferencePolygonMinusAllocs(t *testing.T) {
	l := newLedger(t)
	l.requests(func(name string) bool { return strings.HasPrefix(name, "polygon-minus ") })
	l.check()
}

// TestNormalizeAllocs measures normalising the polygon-minus staircase
// pieces as built, redundant atoms and all.
func TestNormalizeAllocs(t *testing.T) {
	l := newLedger(t)
	pieces := polygonMinusPieces(t)
	l.warm("polygon-minus pieces normalised", nil, func() { _ = pieces.NormalizeWith(nil) })
	l.check()
}

// ledger is one test's section of the ledger as it is measured.
type ledger struct {
	t     *testing.T
	race  bool
	runs  int
	lines []ledgerLine
}

// newLedger starts t's section, at GOMAXPROCS 1 until t ends.
func newLedger(t *testing.T) *ledger {
	l := &ledger{t: t, race: raceBuild(), runs: 10}
	if l.race {
		l.runs = 1
	}
	procs := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(procs) })
	return l
}

func (l *ledger) add(name string, c cost) {
	l.lines = append(l.lines, ledgerLine{name, c.allocs, (c.bytes + 512) / 1024})
}

// step runs f once, counted, with ec the context it runs on (nil: none, or
// the server's own): it fails unless f's operators ran on the pool exactly
// when ec has two workers, and resets ec's statistics uncounted.
func (l *ledger) step(name string, ec *exec.Context, f func()) cost {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	if ec != nil {
		for _, s := range ec.Stats() {
			if s.Parallel != (ec.Parallelism > 1) {
				l.t.Fatalf("%s: %s ran on the pool %v at %d workers", name, s.Op, s.Parallel, ec.Parallelism)
			}
		}
		ec.Reset()
	}
	return cost{m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc}
}

var most = cost{math.MaxUint64, math.MaxUint64}

// warm adds name's warm line: the least of the runs after a first,
// uncounted one.
func (l *ledger) warm(name string, ec *exec.Context, f func()) {
	l.step(name, ec, f)
	least := most
	for range l.runs {
		least = least.min(l.step(name, ec, f))
	}
	l.add(name+", warm", least)
}

// serve is req as the session serves it: run, then normalised.
func (l *ledger) serve(req request, ec *exec.Context) func() {
	return func() {
		out, err := req.run(ec)
		if err != nil {
			l.t.Fatalf("%s: %v", req.name, err)
		}
		out.NormalizeWith(ec.SatFunc())
	}
}

// requests adds the cold and the warm line of each request of the table
// whose name pick keeps.
func (l *ledger) requests(pick func(name string) bool) {
	var table []request
	var ecs []*exec.Context
	var cold []cost
	for r := range l.runs {
		table = table[:0]
		for _, req := range requests(l.t) {
			if pick(req.name) {
				table = append(table, req)
			}
		}
		if r == 0 {
			ecs = make([]*exec.Context, len(table))
			cold = slices.Repeat([]cost{most}, len(table))
		}
		for i, req := range table {
			ecs[i] = session(1)
			runtime.GC() // twice: a sync.Pool keeps what it held through one collection
			runtime.GC()
			cold[i] = cold[i].min(l.step(req.name, ecs[i], l.serve(req, ecs[i])))
		}
	}
	for i, req := range table {
		l.add(req.name+", cold", cold[i])
		l.warm(req.name, ecs[i], l.serve(req, ecs[i]))
	}
}

// cost is what one run allocated: objects and bytes.
type cost struct{ allocs, bytes uint64 }

func (c cost) min(d cost) cost { return cost{min(c.allocs, d.allocs), min(c.bytes, d.bytes)} }

// session is a session-lifetime context: workers workers and a default
// sat-cache.
func session(workers int) *exec.Context {
	ec := exec.New(workers)
	ec.SatCache = constraint.NewSatCache(0)
	return ec
}

// ledgerLine is one line of testdata/allocs.golden.
type ledgerLine struct {
	name       string
	allocs, kb uint64
}

func (l ledgerLine) String() string {
	return fmt.Sprintf("%s: %d allocs, %d KB", l.name, l.allocs, l.kb)
}

const ledgerFile = "testdata/allocs.golden"

// check holds the section against its lines of testdata/allocs.golden,
// or, under -update, writes it there in place of them.
func (l *ledger) check() {
	t := l.t
	header := fmt.Sprintf("# %s %s", runtime.Version(), runtime.GOARCH)
	data, err := os.ReadFile(ledgerFile)
	if err != nil && !(*update && os.IsNotExist(err)) {
		t.Fatalf("%v (run go test -run '%s' -update . to create it)", err, strings.Join(ledgerTests, "|"))
	}
	written, sections := readLedger(t, data)
	if *update {
		if l.race {
			t.Fatal("-update under -race would write the race detector's figures")
		}
		sections[t.Name()] = l.lines
		var buf bytes.Buffer
		fmt.Fprintln(&buf, header)
		for _, name := range ledgerTests {
			if lines, ok := sections[name]; ok {
				fmt.Fprintln(&buf, "## "+name)
				for _, line := range lines {
					fmt.Fprintln(&buf, line)
				}
			}
		}
		if err := os.WriteFile(ledgerFile, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	var toolchain string
	if written != header {
		toolchain = fmt.Sprintf(" (the ledger was written on %s, this is %s)", strings.TrimPrefix(written, "# "), strings.TrimPrefix(header, "# "))
	}
	want := map[string]ledgerLine{}
	for _, w := range sections[t.Name()] {
		want[w.name] = w
	}
	for _, g := range l.lines {
		w, ok := want[g.name]
		delete(want, g.name)
		switch {
		case !ok:
			t.Errorf("%s: no line for %q", ledgerFile, g)
		case l.race:
		case g.allocs > w.allocs+slack(w.allocs) || g.kb > w.kb+slack(w.kb):
			t.Errorf("%s rose: the ledger reads %d allocs, %d KB%s", g, w.allocs, w.kb, toolchain)
		case g.allocs < w.allocs || g.kb < w.kb:
			t.Logf("%s fell: the ledger reads %d allocs, %d KB (rewrite it with -update and name the reason)", g, w.allocs, w.kb)
		}
	}
	for _, w := range want {
		t.Errorf("%s: line %q names no request", ledgerFile, w)
	}
}

// readLedger parses the ledger into its header and its sections by test.
func readLedger(t *testing.T, data []byte) (header string, sections map[string][]ledgerLine) {
	sections = map[string][]ledgerLine{}
	if len(data) == 0 {
		return "", sections
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	header = lines[0]
	var section string
	for _, s := range lines[1:] {
		if name, ok := strings.CutPrefix(s, "## "); ok {
			if !slices.Contains(ledgerTests, name) {
				t.Fatalf("%s: section %q names no ledger test", ledgerFile, name)
			}
			section = name
			continue
		}
		var l ledgerLine
		i := strings.LastIndex(s, ": ")
		if _, err := fmt.Sscanf(s[i+1:], " %d allocs, %d KB", &l.allocs, &l.kb); section == "" || i < 0 || err != nil {
			t.Fatalf("%s: unreadable line %q", ledgerFile, s)
		}
		l.name = s[:i]
		sections[section] = append(sections[section], l)
	}
	return header, sections
}

// slack is how far a ledger figure may rise: ⌈1 %⌉ of it, at least one.
func slack(v uint64) uint64 { return max(1, (v+99)/100) }

// raceBuild reports whether the test binary runs the race detector.
func raceBuild() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// stormCorridor is a track relation over (t, x, y) whose envelopes bound t
// only to a slice and x to the field: in each of slices time slices of a
// horizon, the band |x − y| ≤ 1/2 with 0 ≤ x ≤ field. Joined with Query 3's
// first join on 8 × 8 parcels (field 48, horizon 40, 8 slices) it keeps 80
// of 640 candidates, none of which an envelope narrows.
func stormCorridor(field, horizon, slices int) *relation.Relation {
	r := relation.New(schema.MustNew(schema.Con("t"), schema.Con("x"), schema.Con("y")))
	ri := func(n int) rational.Rat { return rational.FromInt(int64(n)) }
	xy, half := constraint.Var("x").Sub(constraint.Var("y")), rational.New(1, 2)
	dt := horizon / slices
	for k := 0; k < slices; k++ {
		r.MustAdd(relation.ConstraintTuple(constraint.And(
			constraint.MustNew(xy, "<=", constraint.Const(half)), constraint.MustNew(xy, ">=", constraint.Const(half.Neg())),
			constraint.GeConst("x", ri(0)), constraint.LeConst("x", ri(field)),
			constraint.GeConst("t", ri(k*dt)), constraint.LeConst("t", ri(k*dt+dt))).Canon()))
	}
	return r
}

// nonCanonical is r with every constraint part rebuilt from its atoms, so
// that none is flagged canonical or carries a memo: a relation as db.Put
// receives it from a program that builds tuples by hand.
func nonCanonical(t *testing.T, r *relation.Relation) *relation.Relation {
	t.Helper()
	out := relation.New(r.Schema())
	for _, tu := range r.Tuples() {
		nt := tu.WithConstraint(constraint.And(tu.Constraint().Constraints()...))
		if nt.Constraint().IsCanonical() {
			t.Fatal("And flagged its result canonical")
		}
		if err := out.Add(nt); err != nil {
			t.Fatal(err)
		}
	}
	return out
}
