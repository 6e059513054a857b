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

// Run executes the program against the environment: each statement's
// result is bound to its target name (visible to later statements), and
// the final statement's relation is returned. The environment itself is
// not mutated; intermediate results live in a scratch copy.
func (prog *Program) Run(env cqa.Env) (*relation.Relation, error) {
	return prog.run(env, false, nil)
}

// RunOptimized is Run with the CQA optimiser applied to each statement's
// plan before evaluation.
func (prog *Program) RunOptimized(env cqa.Env) (*relation.Relation, error) {
	return prog.run(env, true, nil)
}

// RunCtx is Run under an execution context: CQA operators fan out over
// ec's worker pool and record per-operator stats on ec (see package
// exec). A nil ec is Run.
func (prog *Program) RunCtx(env cqa.Env, ec *exec.Context) (*relation.Relation, error) {
	return prog.run(env, false, ec)
}

// RunOptimizedCtx is RunOptimized under an execution context.
func (prog *Program) RunOptimizedCtx(env cqa.Env, ec *exec.Context) (*relation.Relation, error) {
	return prog.run(env, true, ec)
}

func (prog *Program) run(env cqa.Env, optimize bool, ec *exec.Context) (*relation.Relation, error) {
	scratch := make(cqa.Env, len(env)+len(prog.Stmts))
	for k, v := range env {
		scratch[k] = v
	}
	var last *relation.Relation
	for _, st := range prog.Stmts {
		// Deadline checkpoint between statements: a cancelled execution
		// context (server timeout, client disconnect) stops the program
		// here even when the next statement would run below the fan-out
		// threshold.
		if err := ec.Err(); err != nil {
			return nil, fmt.Errorf("query: line %d (%s): %w", st.Line, st.Target, err)
		}
		var detail string
		if ec.Tracing() {
			detail = st.Target + " = " + st.Expr.String()
		}
		sp := ec.BeginSpan("stmt", detail)
		r, err := evalExpr(st.Expr, scratch, optimize, ec)
		if err != nil {
			ec.EndSpan(sp)
			return nil, fmt.Errorf("query: line %d (%s = %s): %w", st.Line, st.Target, st.Expr, err)
		}
		sp.Set("rows", int64(r.Len()))
		ec.EndSpan(sp)
		scratch[st.Target] = r
		last = r
	}
	return last, nil
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
		if _, ok := env[e.Name]; !ok {
			return nil, fmt.Errorf("unknown relation %q", e.Name)
		}
		return cqa.Scan(e.Name), nil
	case ExprSelect:
		in, err := toPlan(e.Src, env)
		if err != nil {
			return nil, err
		}
		s, err := in.OutSchema(env.Schemas())
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
			ls, lerr := l.OutSchema(env.Schemas())
			rs, rerr := r.OutSchema(env.Schemas())
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

// deduceSpatial identifies the (feature-id, x, y) attribute triple of a
// spatial constraint relation: exactly one relational string attribute and
// exactly two constraint attributes.
func deduceSpatial(s schema.Schema) (fid, x, y string, err error) {
	var fids, cons []string
	for _, a := range s.Attrs() {
		switch {
		case a.Kind == schema.Relational && a.Type == schema.String:
			fids = append(fids, a.Name)
		case a.Kind == schema.Constraint:
			cons = append(cons, a.Name)
		}
	}
	if len(fids) != 1 || len(cons) != 2 {
		return "", "", "", fmt.Errorf("not a spatial relation (need 1 string id + 2 constraint attrs): %s", s)
	}
	return fids[0], cons[0], cons[1], nil
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
	fid1, x1, y1, err := deduceSpatial(l.Schema())
	if err != nil {
		return nil, fmt.Errorf("buffer-join left input: %w", err)
	}
	fid2, x2, y2, err := deduceSpatial(r.Schema())
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
	fid, x, y, err := deduceSpatial(in.Schema())
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
