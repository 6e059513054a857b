package query

import (
	"fmt"

	"cdb/internal/cqa"
	"cdb/internal/exec"
	"cdb/internal/geometry"
	"cdb/internal/relation"
	"cdb/internal/schema"
	"cdb/internal/spatial"
)

// Schema type aliases used by the binder in parser.go.
type cqaSchema = schema.Schema

const (
	schemaString   = schema.String
	schemaRational = schema.Rational
)

// Run executes the program against the environment without the
// optimiser: each statement's result is bound to its target name (visible
// to later statements), and the final statement's relation is returned.
// The environment itself is not mutated; intermediate results live in a
// layer of their own above it.
func (prog *Program) Run(env cqa.Env) (*relation.Relation, error) {
	_, last, err := prog.run(env, false, nil, nil)
	return last, err
}

// RunOptimizedCtx is Run with the CQA optimiser applied to each
// statement's plan before evaluation, under an execution context: CQA
// operators fan out over ec's worker pool and record per-operator stats on
// ec (see package exec; a nil ec is sequential with no stats).
func (prog *Program) RunOptimizedCtx(env cqa.Env, ec *exec.Context) (*relation.Relation, error) {
	_, last, err := prog.run(env, true, ec, nil)
	return last, err
}

// Exec runs the program as every front end does (Database.Run, the
// server's /v1/query and the cqacdb shell): optimised, under ec, with every
// statement's raw result handed to bind, when bind is non-nil, so a session
// can keep it. It returns the final statement's target and its result
// normalised under a "normalize" span: unsatisfiable tuples dropped,
// constraint parts simplified into canonical form, duplicates removed.
// Semantics unchanged; the context's sat-cache (if any) memoizes the
// decisions. env is not mutated.
func (prog *Program) Exec(env cqa.Env, ec *exec.Context, bind func(target string, r *relation.Relation)) (string, *relation.Relation, error) {
	target, last, err := prog.run(env, true, ec, bind)
	if err != nil {
		return "", nil, err
	}
	sp := ec.BeginSpan("normalize", "")
	norm := last.NormalizeWith(ec.SatFunc())
	sp.Set("rows", int64(norm.Len()))
	ec.EndSpan(sp)
	return target, norm, nil
}

// run is the one statement loop: it evaluates the statements in order
// over env, binds each result under its target in one layer on top of env
// for the statements after it, hands it to bind when bind is non-nil, and
// returns the last target and result.
func (prog *Program) run(env cqa.Env, optimize bool, ec *exec.Context, bind func(string, *relation.Relation)) (string, *relation.Relation, error) {
	bound := make(map[string]*relation.Relation, len(prog.Stmts))
	env = env.With(bound)
	var (
		last   *relation.Relation
		target string
	)
	for _, st := range prog.Stmts {
		// Deadline checkpoint between statements: a cancelled execution
		// context (server timeout, client disconnect) stops the program
		// here even when the next statement would run below the fan-out
		// threshold.
		if err := ec.Err(); err != nil {
			return "", nil, fmt.Errorf("query: line %d (%s): %w", st.Line, st.Target, err)
		}
		var detail string
		if ec.Tracing() {
			detail = st.Target + " = " + st.Expr.String()
		}
		sp := ec.BeginSpan("stmt", detail)
		r, err := evalExpr(st.Expr, env, optimize, ec)
		if err != nil {
			ec.EndSpan(sp)
			return "", nil, fmt.Errorf("query: line %d (%s = %s): %w", st.Line, st.Target, st.Expr, err)
		}
		sp.Set("rows", int64(r.Len()))
		ec.EndSpan(sp)
		bound[st.Target] = r
		if bind != nil {
			bind(st.Target, r)
		}
		last, target = r, st.Target
	}
	return target, last, nil
}

func evalExpr(e *Expr, env cqa.Env, optimize bool, ec *exec.Context) (*relation.Relation, error) {
	switch e.Kind {
	case ExprBufferJoin:
		return evalBufferJoin(e, env, optimize, ec)
	case ExprKNearest:
		return evalKNearest(e, env, optimize, ec)
	}
	node, err := toPlan(e, env)
	if err != nil {
		return nil, err
	}
	if optimize {
		// Syntactic rules, then the cost-driven rewrites — the
		// environment holds real relations here, so the estimator's
		// statistics are exact.
		node = cqa.Plan(node, env)
	}
	return node.EvalCtx(env, ec)
}

// toPlan lowers the surface expression to a CQA plan, binding selection
// conditions against the input schema (which requires resolving the
// subtree's schema first — conditions depend on the C/R flags and types of
// intermediate results).
func toPlan(e *Expr, env cqa.Env) (cqa.Node, error) {
	switch e.Kind {
	case ExprScan:
		if _, ok := env.Lookup(e.Name); !ok {
			return nil, fmt.Errorf("unknown relation %q", e.Name)
		}
		return cqa.Scan(e.Name), nil
	case ExprSelect:
		in, err := toPlan(e.Src, env)
		if err != nil {
			return nil, err
		}
		s, err := in.OutSchema(env)
		if err != nil {
			return nil, err
		}
		var cond cqa.Condition
		for _, ra := range e.Conds {
			atom, err := bindAtom(ra, s)
			if err != nil {
				return nil, err
			}
			cond = append(cond, atom)
		}
		return cqa.NewSelect(in, cond), nil
	case ExprProject:
		in, err := toPlan(e.Src, env)
		if err != nil {
			return nil, err
		}
		return cqa.NewProject(in, e.Cols...), nil
	case ExprJoin:
		l, r, err := toPlan2(e, env)
		if err != nil {
			return nil, err
		}
		if e.Name == "intersect" {
			ls, lerr := l.OutSchema(env)
			rs, rerr := r.OutSchema(env)
			if lerr == nil && rerr == nil && !ls.Equal(rs) {
				return nil, fmt.Errorf("intersect requires equal schemas: %s vs %s", ls, rs)
			}
		}
		return cqa.NewJoin(l, r), nil
	case ExprUnion:
		l, r, err := toPlan2(e, env)
		if err != nil {
			return nil, err
		}
		return cqa.NewUnion(l, r), nil
	case ExprMinus:
		l, r, err := toPlan2(e, env)
		if err != nil {
			return nil, err
		}
		return cqa.NewDiff(l, r), nil
	case ExprRename:
		in, err := toPlan(e.Src, env)
		if err != nil {
			return nil, err
		}
		return cqa.NewRename(in, map[string]string{e.Old: e.New}), nil
	default:
		return nil, fmt.Errorf("operator %v cannot be lowered to a CQA plan", e.Kind)
	}
}

func toPlan2(e *Expr, env cqa.Env) (cqa.Node, cqa.Node, error) {
	l, err := toPlan(e.Src, env)
	if err != nil {
		return nil, nil, err
	}
	r, err := toPlan(e.Src2, env)
	if err != nil {
		return nil, nil, err
	}
	return l, r, nil
}

func evalBufferJoin(e *Expr, env cqa.Env, optimize bool, ec *exec.Context) (*relation.Relation, error) {
	l, err := evalExpr(e.Src, env, optimize, ec)
	if err != nil {
		return nil, err
	}
	r, err := evalExpr(e.Src2, env, optimize, ec)
	if err != nil {
		return nil, err
	}
	fid1, x1, y1, err := spatial.Attrs(l.Schema())
	if err != nil {
		return nil, fmt.Errorf("buffer-join left input: %w", err)
	}
	fid2, x2, y2, err := spatial.Attrs(r.Schema())
	if err != nil {
		return nil, fmt.Errorf("buffer-join right input: %w", err)
	}
	pairs, err := spatial.BufferJoinRelations(l, fid1, x1, y1, r, fid2, x2, y2, e.Dist)
	if err != nil {
		return nil, err
	}
	// Output attribute names: the two inputs' feature-id names, made
	// distinct when they collide.
	leftName, rightName := fid1, fid2
	if leftName == rightName {
		rightName = rightName + "_2"
	}
	return spatial.PairsToRelation(pairs, leftName, rightName)
}

func evalKNearest(e *Expr, env cqa.Env, optimize bool, ec *exec.Context) (*relation.Relation, error) {
	in, err := evalExpr(e.Src, env, optimize, ec)
	if err != nil {
		return nil, err
	}
	fid, x, y, err := spatial.Attrs(in.Schema())
	if err != nil {
		return nil, fmt.Errorf("k-nearest input: %w", err)
	}
	q := spatial.PointGeom(geometry.Point{X: e.PointX, Y: e.PointY})
	ns, err := spatial.KNearestRelation(in, fid, x, y, q, e.K)
	if err != nil {
		return nil, err
	}
	return spatial.NeighborsToRelation(ns, fid, "rank")
}
