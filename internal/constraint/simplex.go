package constraint

import (
	"sort"

	"cdb/internal/rational"
)

// This file implements an exact rational simplex optimiser over the closure
// of a conjunction of linear constraints (strict inequalities are relaxed to
// their closures: sup/inf are still exact, attainment may be open).
//
// It has one role: the independent decision procedure property_test.go
// checks Fourier-Motzkin against — feasibility reached by pivoting rather
// than by elimination (FeasiblePoint, and the slack LP that decides strict
// systems exactly). No production code calls Maximize, Minimize or
// FeasiblePoint. It stays out of production because it loses where it
// would serve: on the 3-variable conjunctions of the paper's Query 3
// (BenchmarkColdDecision, BenchmarkColdRedundancy) one slack LP costs
// 3.3 cold Fourier-Motzkin decisions, and one LP per atom 3.5 times
// SimplifyWith's entailment pass, with identical verdicts (2-core x86-64
// host, medians of five runs).
//
// The implementation is the standard two-phase primal simplex on a dense
// rational dictionary with Bland's anti-cycling rule. Free variables are
// handled by the x = x⁺ - x⁻ split.

// SimplexStatus is the outcome of an optimisation.
type SimplexStatus int

const (
	// Optimal: a finite optimum was found.
	Optimal SimplexStatus = iota
	// Unbounded: the objective is unbounded over the feasible region.
	Unbounded
	// Infeasible: the (closed relaxation of the) system has no solution.
	Infeasible
)

func (s SimplexStatus) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Unbounded:
		return "unbounded"
	default:
		return "infeasible"
	}
}

// SimplexResult carries the outcome of Maximize/Minimize.
type SimplexResult struct {
	Status SimplexStatus
	// Value is the optimum (valid when Status == Optimal).
	Value rational.Rat
	// Point is an optimal assignment of the original variables
	// (valid when Status == Optimal).
	Point map[string]rational.Rat
}

// Maximize maximises obj over the closure of j.
func Maximize(j Conjunction, obj Expr) SimplexResult {
	return optimize(j, obj, true)
}

// Minimize minimises obj over the closure of j.
func Minimize(j Conjunction, obj Expr) SimplexResult {
	r := optimize(j, obj.Neg(), true)
	if r.Status == Optimal {
		r.Value = r.Value.Neg()
	}
	return r
}

func optimize(j Conjunction, obj Expr, _ bool) SimplexResult {
	// Collect variables from both the system and the objective.
	varSet := map[string]bool{}
	for _, v := range j.Vars() {
		varSet[v] = true
	}
	for _, v := range obj.Vars() {
		varSet[v] = true
	}
	vars := make([]string, 0, len(varSet))
	for v := range varSet {
		vars = append(vars, v)
	}
	sort.Strings(vars)

	// Split each free variable v into vPlus - vMinus (both >= 0).
	// Column layout: 2*len(vars) structural columns.
	n := 2 * len(vars)
	col := func(v string, plus bool) int {
		i := sort.SearchStrings(vars, v)
		if plus {
			return 2 * i
		}
		return 2*i + 1
	}

	// Rows: one per inequality; equalities become two inequalities.
	// Each row: sum a_j x_j <= b.
	type row struct {
		a []rational.Rat
		b rational.Rat
	}
	var rows []row
	addRow := func(e Expr) {
		// e <= 0  ->  sum coef*var <= -const
		r := row{a: make([]rational.Rat, n), b: e.ConstTerm().Neg()}
		for _, t := range e.Terms() {
			r.a[col(t.Var, true)] = r.a[col(t.Var, true)].Add(t.Coef)
			r.a[col(t.Var, false)] = r.a[col(t.Var, false)].Sub(t.Coef)
		}
		rows = append(rows, r)
	}
	for _, c := range j.Constraints() {
		switch c.Op {
		case Eq:
			addRow(c.Expr)
			addRow(c.Expr.Neg())
		default: // Le, Lt (closure)
			addRow(c.Expr)
		}
	}
	m := len(rows)

	// Objective coefficients over structural columns.
	cobj := make([]rational.Rat, n)
	for _, t := range obj.Terms() {
		cobj[col(t.Var, true)] = cobj[col(t.Var, true)].Add(t.Coef)
		cobj[col(t.Var, false)] = cobj[col(t.Var, false)].Sub(t.Coef)
	}

	// Dictionary representation (Chvátal): basic variables expressed in
	// terms of nonbasic ones. Variable ids: 0..n-1 structural,
	// n..n+m-1 slacks, n+m is the phase-1 artificial x0.
	// dict[i] = constant + sum over nonbasic of coef * x_nb.
	total := n + m + 1
	x0 := n + m

	nonbasic := make([]int, 0, n+1)
	for jx := 0; jx < n; jx++ {
		nonbasic = append(nonbasic, jx)
	}
	basic := make([]int, m)
	// dictRows[i][k]: coefficient of nonbasic[k] in the expression of
	// basic[i]; dictB[i]: constant.
	dictB := make([]rational.Rat, m)
	dictRows := make([][]rational.Rat, m)
	for i := 0; i < m; i++ {
		basic[i] = n + i
		dictB[i] = rows[i].b
		dictRows[i] = make([]rational.Rat, len(nonbasic))
		for k, jx := range nonbasic {
			dictRows[i][k] = rows[i].a[jx].Neg()
		}
	}

	// objRow: objective expressed over nonbasic variables.
	objConst := rational.Zero
	objRow := make([]rational.Rat, len(nonbasic))
	setObj := func(c []rational.Rat, cx0 rational.Rat) {
		objConst = rational.Zero
		for k := range objRow {
			objRow[k] = rational.Zero
		}
		for k, jx := range nonbasic {
			switch {
			case jx == x0:
				objRow[k] = cx0
			case jx < n && c != nil:
				objRow[k] = c[jx]
			}
		}
	}

	pivot := func(entK, leaveI int) {
		// basic[leaveI] leaves; nonbasic[entK] enters.
		ent, lea := nonbasic[entK], basic[leaveI]
		a := dictRows[leaveI][entK] // coefficient of entering var; nonzero
		inv := a.Inv()
		// Solve the leaving row for the entering variable:
		// x_ent = (x_lea - const - sum_{k != entK} coef_k x_k) / a
		newRow := make([]rational.Rat, len(nonbasic))
		newB := dictB[leaveI].Mul(inv).Neg()
		for k := range dictRows[leaveI] {
			if k == entK {
				newRow[k] = inv // coefficient of x_lea (replaces x_ent slot)
			} else {
				newRow[k] = dictRows[leaveI][k].Mul(inv).Neg()
			}
		}
		// Substitute into all other rows.
		for i := range dictRows {
			if i == leaveI {
				continue
			}
			c := dictRows[i][entK]
			if c.IsZero() {
				continue
			}
			dictB[i] = dictB[i].Add(c.Mul(newB))
			for k := range dictRows[i] {
				if k == entK {
					dictRows[i][k] = c.Mul(newRow[k])
				} else {
					dictRows[i][k] = dictRows[i][k].Add(c.Mul(newRow[k]))
				}
			}
		}
		// Substitute into the objective.
		c := objRow[entK]
		if !c.IsZero() {
			objConst = objConst.Add(c.Mul(newB))
			for k := range objRow {
				if k == entK {
					objRow[k] = c.Mul(newRow[k])
				} else {
					objRow[k] = objRow[k].Add(c.Mul(newRow[k]))
				}
			}
		}
		dictRows[leaveI] = newRow
		dictB[leaveI] = newB
		nonbasic[entK], basic[leaveI] = lea, ent
	}

	// run executes simplex pivots until optimal or unbounded.
	run := func() SimplexStatus {
		for {
			// Bland's rule: entering = lowest-id nonbasic with positive
			// objective coefficient.
			entK := -1
			for k := range nonbasic {
				if objRow[k].Sign() > 0 && (entK == -1 || nonbasic[k] < nonbasic[entK]) {
					entK = k
				}
			}
			if entK == -1 {
				return Optimal
			}
			// Ratio test: leaving = row minimising b_i / (-coef), coef < 0.
			leaveI := -1
			var best rational.Rat
			for i := range dictRows {
				c := dictRows[i][entK]
				if c.Sign() >= 0 {
					continue
				}
				ratio := dictB[i].Div(c.Neg())
				if leaveI == -1 || ratio.Cmp(best) < 0 ||
					(ratio.Equal(best) && basic[i] < basic[leaveI]) {
					leaveI, best = i, ratio
				}
			}
			if leaveI == -1 {
				return Unbounded
			}
			pivot(entK, leaveI)
		}
	}

	// Phase 1 if some b_i < 0.
	needPhase1 := false
	for i := range dictB {
		if dictB[i].Sign() < 0 {
			needPhase1 = true
			break
		}
	}
	if needPhase1 {
		// Add x0 to every row (coefficient +1 in the dictionary) and
		// maximise -x0.
		nonbasic = append(nonbasic, x0)
		for i := range dictRows {
			dictRows[i] = append(dictRows[i], rational.One)
		}
		objRow = append(objRow, rational.Zero)
		setObj(nil, rational.FromInt(-1))
		// Special first pivot: enter x0, leave the most negative row.
		entK := len(nonbasic) - 1
		leaveI := 0
		for i := range dictB {
			if dictB[i].Cmp(dictB[leaveI]) < 0 {
				leaveI = i
			}
		}
		pivot(entK, leaveI)
		if st := run(); st != Optimal {
			// Phase-1 objective -x0 <= 0 is always bounded above.
			return SimplexResult{Status: Infeasible}
		}
		if objConst.Sign() < 0 {
			return SimplexResult{Status: Infeasible}
		}
		// Drive x0 out of the basis if it lingers (degenerate optimum).
		for i, bv := range basic {
			if bv == x0 {
				entK := -1
				for k := range nonbasic {
					if !dictRows[i][k].IsZero() {
						entK = k
						break
					}
				}
				if entK == -1 {
					// Row is 0 = 0; drop it.
					basic = append(basic[:i], basic[i+1:]...)
					dictB = append(dictB[:i], dictB[i+1:]...)
					dictRows = append(dictRows[:i], dictRows[i+1:]...)
				} else {
					pivot(entK, i)
				}
				break
			}
		}
		// Remove x0 from the nonbasic set.
		for k, v := range nonbasic {
			if v == x0 {
				nonbasic = append(nonbasic[:k], nonbasic[k+1:]...)
				for i := range dictRows {
					dictRows[i] = append(dictRows[i][:k], dictRows[i][k+1:]...)
				}
				objRow = append(objRow[:k], objRow[k+1:]...)
				break
			}
		}
		// Restore the real objective, substituting basic variables.
		setObj(cobj, rational.Zero)
		for i, bv := range basic {
			if bv < n && !cobj[bv].IsZero() {
				c := cobj[bv]
				objConst = objConst.Add(c.Mul(dictB[i]))
				for k := range objRow {
					objRow[k] = objRow[k].Add(c.Mul(dictRows[i][k]))
				}
			}
		}
	} else {
		setObj(cobj, rational.Zero)
	}

	if st := run(); st == Unbounded {
		return SimplexResult{Status: Unbounded}
	}

	// Extract the solution point.
	val := make([]rational.Rat, total)
	for i, bv := range basic {
		val[bv] = dictB[i]
	}
	point := make(map[string]rational.Rat, len(vars))
	for _, v := range vars {
		point[v] = val[col(v, true)].Sub(val[col(v, false)])
	}
	return SimplexResult{Status: Optimal, Value: objConst, Point: point}
}

// FeasiblePoint returns a rational assignment satisfying the closure of j,
// or ok=false if the closure is infeasible. Note: for conjunctions whose
// only solutions lie on strict boundaries (e.g. x < 0 ∧ x >= 0 has a
// feasible closure but is itself unsatisfiable), use IsSatisfiable for the
// exact open-set decision.
func FeasiblePoint(j Conjunction) (map[string]rational.Rat, bool) {
	r := Maximize(j, Expr{})
	if r.Status != Optimal {
		return nil, false
	}
	return r.Point, true
}
