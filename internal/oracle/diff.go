package oracle

// The differential harness: random heterogeneous inputs (internal/datagen)
// -> run the engine operator and the oracle's pointwise ground truth ->
// compare membership on the combined witness set. Any disagreement is
// minimised by greedy tuple deletion before it is reported, so a failure
// report names a near-minimal (tuple, tuple) pair, the probe point and
// both verdicts — everything needed to reproduce and debug by hand.
//
// The engine side of every comparison is the *naive* membership decision
// (In) applied to the engine's output relation, so both sides of the diff
// rest on the same obviously-correct foundation: direct substitution and
// sign tests. The engine's FM eliminator, canonicaliser, sat-cache,
// staircase subtraction and parallel merge all sit between the inputs and
// that output — which is exactly the machinery under test.

import (
	"fmt"
	"math/rand"

	"cdb/internal/calculus"
	"cdb/internal/constraint"
	"cdb/internal/cqa"
	"cdb/internal/datagen"
	"cdb/internal/exec"
	"cdb/internal/rational"
	"cdb/internal/relation"
	"cdb/internal/schema"
)

// AllOps is the default case mix: all seven CQA operators, and "rule" — a
// random conjunctive rule through the calculus front end (rule.go).
var AllOps = []string{"select", "project", "join", "intersect", "union", "rename", "difference", "rule"}

// Config drives one Diff run. The zero value of every field selects a
// sensible default; Seed 0 really means seed 0 (runs are reproducible
// from the printed seed either way).
type Config struct {
	Cases     int    // random cases to run (default 100)
	Seed      int64  // base seed; case i derives its own rng from it
	Workers   int    // engine worker-pool size (0 = GOMAXPROCS)
	MaxTuples int    // max tuples per random input relation (default 5)
	Plan      string // engine PlanMode ("" = auto); "dense" leaves every pair to the sat-cache and Fourier-Motzkin
	Spatial   bool   // draw polygon-shaped spatial inputs instead of random heterogeneous ones
	SatCache  bool   // give each case's engine context a sat-cache of the default size
	Ops       []string
	Witness   WitnessOptions
}

func (c Config) withDefaults() Config {
	if c.Cases == 0 {
		c.Cases = 100
	}
	if c.MaxTuples == 0 {
		c.MaxTuples = 5
	}
	if len(c.Ops) == 0 {
		c.Ops = AllOps
	}
	return c
}

// engine returns a fresh execution context for one engine run of the
// harness: everything parallelised, the configured plan mode and cache.
func (c Config) engine() *exec.Context {
	ec := exec.New(c.Workers)
	ec.SeqThreshold = 1
	ec.PlanMode = c.Plan
	if c.SatCache {
		ec.SatCache = constraint.NewSatCache(0)
	}
	return ec
}

// Failure is one engine/oracle disagreement, minimised.
type Failure struct {
	Case   int               `json:"case"`
	Op     string            `json:"op"`
	Apply  string            `json:"apply"`
	Point  map[string]string `json:"point,omitempty"`
	Engine bool              `json:"engine"`
	Oracle bool              `json:"oracle"`
	R1     string            `json:"r1"`
	R2     string            `json:"r2,omitempty"`
	Err    string            `json:"error,omitempty"`
}

func (f Failure) String() string {
	if f.Err != "" {
		return fmt.Sprintf("case %d %s: %s\nr1 = %s\nr2 = %s", f.Case, f.Apply, f.Err, f.R1, f.R2)
	}
	return fmt.Sprintf("case %d %s at point %v: engine=%v oracle=%v\nr1 = %s\nr2 = %s",
		f.Case, f.Apply, f.Point, f.Engine, f.Oracle, f.R1, f.R2)
}

// Report summarises a Diff run.
type Report struct {
	Cases    int            `json:"cases"`
	Seed     int64          `json:"seed"`
	Workers  int            `json:"workers"`
	Points   int            `json:"points_compared"`
	PerOp    map[string]int `json:"cases_per_op"`
	Failures []Failure      `json:"failures"`
}

// Diff runs the differential harness: cfg.Cases random (inputs, operator)
// cases, engine vs oracle, membership compared at every witness point.
// Case i is fully determined by cfg.Seed and i, so any failure reproduces
// from the report's seed alone.
func Diff(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	rep := &Report{Cases: cfg.Cases, Seed: cfg.Seed, Workers: exec.New(cfg.Workers).Workers(),
		PerOp: map[string]int{}}
	for i := 0; i < cfg.Cases; i++ {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(i)*1_000_003))
		op := cfg.Ops[i%len(cfg.Ops)]
		rep.PerOp[op]++
		a, r1, r2, err := randomCase(rng, op, cfg.MaxTuples, cfg.Spatial)
		if err != nil {
			return nil, fmt.Errorf("oracle: case %d: %w", i, err)
		}
		eng, err := RunEngine(cfg.engine(), a, r1, r2)
		if err != nil {
			rep.Failures = append(rep.Failures, Failure{Case: i, Op: op, Apply: a.String(),
				R1: r1.String(), R2: renderR2(r2), Err: "engine: " + err.Error()})
			continue
		}
		pts := witnessesFor(rng, a, r1, r2, cfg.Witness)
		for _, p := range pts {
			rep.Points++
			engIn, err1 := In(eng, p)
			oraIn, err2 := a.Holds(r1, r2, p)
			if err1 != nil || err2 != nil {
				rep.Failures = append(rep.Failures, Failure{Case: i, Op: op, Apply: a.String(),
					Point: renderPoint(p), R1: r1.String(), R2: renderR2(r2),
					Err: fmt.Sprintf("membership: engine=%v oracle=%v", err1, err2)})
				break
			}
			if engIn != oraIn {
				m1, m2 := minimize(a, r1, r2, p, cfg)
				rep.Failures = append(rep.Failures, Failure{Case: i, Op: op, Apply: a.String(),
					Point: renderPoint(p), Engine: engIn, Oracle: oraIn,
					R1: m1.String(), R2: renderR2(m2)})
				break
			}
		}
	}
	return rep, nil
}

// RunEngine executes one operator application on the engine under an
// execution context. Exported so cdbbench and the tests drive exactly the
// operator dispatch the harness uses.
func RunEngine(ec *exec.Context, a Apply, r1, r2 *relation.Relation) (*relation.Relation, error) {
	switch a.Op {
	case "select":
		return cqa.SelectCtx(ec, r1, a.Cond)
	case "project":
		return cqa.ProjectCtx(ec, r1, a.Cols...)
	case "join":
		return cqa.JoinCtx(ec, r1, r2)
	case "intersect":
		return cqa.IntersectCtx(ec, r1, r2)
	case "union":
		return cqa.UnionCtx(ec, r1, r2)
	case "rename":
		return cqa.RenameCtx(ec, r1, map[string]string{a.Old: a.New})
	case "difference":
		return cqa.DifferenceCtx(ec, r1, r2)
	case "rule":
		return (&calculus.Program{Rules: []calculus.Rule{a.Rule}}).RunCtx(ruleRels(r1, r2), ec)
	default:
		return nil, fmt.Errorf("oracle: unknown operator %q", a.Op)
	}
}

// randomCase draws one (application, inputs) case for the operator.
func randomCase(rng *rand.Rand, op string, maxTuples int, spatial bool) (Apply, *relation.Relation, *relation.Relation, error) {
	a := Apply{Op: op}
	input := func() *relation.Relation {
		if spatial {
			return datagen.RandomPolygonRelation(rng, maxTuples)
		}
		return datagen.RandomRelation(rng, datagen.RandomSchema(rng), maxTuples)
	}
	switch op {
	case "select":
		r1 := input()
		a.Cond = randomCondition(rng, r1.Schema())
		return a, r1, nil, nil
	case "project":
		r1 := input()
		s := r1.Schema()
		names := s.Names()
		// A random non-empty subset, in schema order.
		for len(a.Cols) == 0 {
			a.Cols = nil
			for _, n := range names {
				if rng.Intn(2) == 0 {
					a.Cols = append(a.Cols, n)
				}
			}
		}
		return a, r1, nil, nil
	case "rename":
		r1 := input()
		names := r1.Schema().Names()
		a.Old = names[rng.Intn(len(names))]
		a.New = "r" + a.Old
		return a, r1, nil, nil
	case "join":
		if spatial {
			// Spatial relations share one schema, so the natural join is
			// the intersection — exactly the pairing the vector fast path
			// accelerates.
			return a, input(), input(), nil
		}
		r1, r2, err := datagen.RandomJoinPair(rng, maxTuples)
		return a, r1, r2, err
	case "intersect", "union", "difference":
		if spatial {
			return a, input(), input(), nil
		}
		r1, r2 := datagen.RandomRelationPair(rng, maxTuples)
		return a, r1, r2, nil
	case "rule":
		r1, r2 := input(), input()
		a.Rule = randomRule(rng, r1.Schema(), r2.Schema())
		return a, r1, r2, nil
	default:
		return a, nil, nil, fmt.Errorf("unknown operator %q", op)
	}
}

// randomCondition draws a 1-4 atom selection condition over s: linear
// atoms (every comparison operator, including the tuple-splitting !=) over
// the constraint attributes, string atoms (=, !=, attribute-to-attribute)
// over the relational ones, with literals that sometimes match nothing. One
// draw in three adds a two-sided window v >= k, v <= k+w on one constraint
// attribute: the box the envelope decider meets a box tuple with.
func randomCondition(rng *rand.Rand, s schema.Schema) cqa.Condition {
	rel := s.RelationalNames()
	con := s.ConstraintNames()
	pool := []string{"a", "b", "c", "zz"}
	n := 1 + rng.Intn(4)
	var cond cqa.Condition
	if rng.Intn(3) == 0 {
		v := con[rng.Intn(len(con))]
		k := int64(rng.Intn(17) - 8)
		cond = append(cond, cqa.AttrCmpConst(v, cqa.OpGe, rational.FromInt(k)),
			cqa.AttrCmpConst(v, cqa.OpLe, rational.FromInt(k+int64(rng.Intn(9)))))
	}
	for i := 0; i < n; i++ {
		if len(rel) > 0 && rng.Intn(3) == 0 {
			attr := rel[rng.Intn(len(rel))]
			switch {
			case len(rel) > 1 && rng.Intn(4) == 0:
				cond = append(cond, cqa.StrEqAttr(rel[0], rel[1]))
			case rng.Intn(2) == 0:
				cond = append(cond, cqa.StrEq(attr, pool[rng.Intn(len(pool))]))
			default:
				cond = append(cond, cqa.StrNe(attr, pool[rng.Intn(len(pool))]))
			}
			continue
		}
		ops := []cqa.CompOp{cqa.OpEq, cqa.OpNe, cqa.OpLt, cqa.OpLe, cqa.OpGt, cqa.OpGe}
		v := con[rng.Intn(len(con))]
		k := rational.FromInt(int64(rng.Intn(17) - 8))
		if len(con) > 1 && rng.Intn(3) == 0 {
			cond = append(cond, cqa.AttrCmpAttr(v, ops[rng.Intn(len(ops))], con[rng.Intn(len(con))]))
			continue
		}
		cond = append(cond, cqa.AttrCmpConst(v, ops[rng.Intn(len(ops))], k))
	}
	return cond
}

// witnessesFor builds the witness set for one case over the application's
// OUTPUT schema, feeding the operator's own arguments (condition
// boundaries, rename) into the candidate pools.
func witnessesFor(rng *rand.Rand, a Apply, r1, r2 *relation.Relation, opts WitnessOptions) []relation.Point {
	switch a.Op {
	case "select":
		var extra Extra
		for _, atom := range a.Cond {
			switch at := atom.(type) {
			case cqa.LinearAtom:
				// Only the boundary line matters for witness candidates; the
				// comparison direction is irrelevant.
				extra.Atoms = append(extra.Atoms, constraint.Constraint{Expr: at.Expr, Op: constraint.Le})
			case cqa.StringAtom:
				if at.IsLit {
					if extra.Strings == nil {
						extra.Strings = map[string][]string{}
					}
					extra.Strings[at.Attr] = append(extra.Strings[at.Attr], at.Lit)
				}
			}
		}
		return Witnesses(rng, r1.Schema(), opts, extra, r1)
	case "project":
		ps, err := r1.Schema().Project(a.Cols...)
		if err != nil {
			return nil
		}
		return Witnesses(rng, ps, opts, Extra{}, r1)
	case "rename":
		pts := Witnesses(rng, r1.Schema(), opts, Extra{}, r1)
		out := make([]relation.Point, len(pts))
		for i, p := range pts {
			q := relation.Point{}
			for k, v := range p {
				if k == a.Old {
					q[a.New] = v
				} else {
					q[k] = v
				}
			}
			out[i] = q
		}
		return out
	case "join":
		js, err := r1.Schema().Join(r2.Schema())
		if err != nil {
			return nil
		}
		return Witnesses(rng, js, opts, Extra{}, r1, r2)
	case "rule":
		return ruleWitnesses(rng, a.Rule, ruleRels(r1, r2), opts)
	default: // intersect, union, difference: schemas are equal
		return Witnesses(rng, r1.Schema(), opts, Extra{}, r1, r2)
	}
}

// minimize greedily deletes tuples from both inputs while the engine and
// the oracle still disagree at point p, converging on a near-minimal
// counterexample (typically a single tuple pair).
func minimize(a Apply, r1, r2 *relation.Relation, p relation.Point, cfg Config) (*relation.Relation, *relation.Relation) {
	disagrees := func(c1, c2 *relation.Relation) bool {
		out, err := RunEngine(cfg.engine(), a, c1, c2)
		if err != nil {
			return false
		}
		engIn, err1 := In(out, p)
		oraIn, err2 := a.Holds(c1, c2, p)
		if err1 != nil || err2 != nil {
			return false
		}
		return engIn != oraIn
	}
	shrink := func(r *relation.Relation, other *relation.Relation, first bool) *relation.Relation {
		if r == nil {
			return nil
		}
		cur := r
		for i := 0; i < cur.Len(); {
			cand := relation.New(cur.Schema())
			for j, t := range cur.Tuples() {
				if j != i {
					cand.MustAdd(t)
				}
			}
			var ok bool
			if first {
				ok = disagrees(cand, other)
			} else {
				ok = disagrees(other, cand)
			}
			if ok {
				cur = cand
			} else {
				i++
			}
		}
		return cur
	}
	// Two alternating passes reach a fixpoint in practice.
	for round := 0; round < 2; round++ {
		r1 = shrink(r1, r2, true)
		r2 = shrink(r2, r1, false)
	}
	return r1, r2
}

func renderR2(r2 *relation.Relation) string {
	if r2 == nil {
		return ""
	}
	return r2.String()
}

func renderPoint(p relation.Point) map[string]string {
	out := make(map[string]string, len(p))
	for k, v := range p {
		out[k] = v.String()
	}
	return out
}
