// Command cdbbench regenerates the paper's evaluation (§5.4): it builds
// the joint and separate indexing structures over the published workload
// distributions and reports disk accesses per query, bucketed the way
// Figures 4 and 5 plot them.
//
// Usage:
//
//	cdbbench                    # all experiments at paper scale (10,000 boxes)
//	cdbbench -expt fig4         # only Figure 4 (expts 1-A and 1-B)
//	cdbbench -expt fig5         # only Figure 5 (expts 2-A and 2-B)
//	cdbbench -expt exp3         # the 500-query mixed workload
//	cdbbench -expt corner       # the §5.3 corner case
//	cdbbench -expt cqa          # parallel vs sequential CQA operator timings
//	cdbbench -expt canon        # sat-cache cold vs warm decision counts
//	cdbbench -expt vector       # vector fast path vs pure Fourier-Motzkin
//	cdbbench -expt diff         # differential check: engine vs semantic oracle
//	cdbbench -scale 10          # 1/10th of the data for a quick run
//	cdbbench -page 512          # page (node) size in bytes
//	cdbbench -buckets 8         # plot buckets per series
//	cdbbench -verify            # check the paper's qualitative claims
//
// The cqa experiment times Join, Select, Intersect and Difference over
// workload-derived constraint relations, sequentially and on the parallel
// execution layer (-par workers, 0 = GOMAXPROCS; -cqasize tuples per
// side), and reports per-operator speedups; -stats adds the per-operator
// execution table (tuples in/out, satisfiability checks, pruned-unsat
// count, sat-cache hits/misses, wall time); -json writes the timings and
// the parallel run's per-operator stats as a JSON object.
//
// The canon experiment runs the same operator workload -rounds times, cold
// (no sat-cache) and warm (one -sat-cache shared across rounds), and
// compares the raw Fourier-Motzkin decision counts, the cache hit rate and
// the wall times; it fails if the warm output is not byte-identical to the
// cold output. -json writes the measurements as a JSON object (the
// `make bench-canon` target writes BENCH_canon.json this way).
//
// The prune experiment measures the filter-and-refine candidate filter
// (internal/cqa/pairing.go): the binary operators run over three workload
// shapes — dense (one heavily overlapping cluster: worst case, measures
// filter overhead), skewed-bucket (Zipf-distributed relational ids:
// partition pruning), spatially-clustered (all-NULL ids, separated box
// clusters: envelope + interval-sweep pruning) — once with the filter off
// (the dense nested loop) and once with it on, -rounds times each. It
// reports pairs considered/pruned, refine-stage sat decisions under both
// modes and the wall-time delta, checks the outputs are byte-identical
// (failing otherwise), and -json writes the measurements (the
// `make bench-prune` target writes BENCH_prune.json this way).
//
// The plan experiment measures the filter stage's candidate enumerations
// (internal/cqa/planner.go): the binary operators run over the prune
// experiment's three workload shapes with each enumeration forced in turn
// (-plan dense | sweep) and once under the cost model (auto), -rounds
// times each. It reports per-mode wall time, refine-stage
// sat decisions and the estimator's est_pairs vs the actual surviving
// act_pairs, records which strategy auto picked, checks that every mode's
// output is byte-identical (failing otherwise), and -json writes the
// measurements (the `make bench-plan` target writes BENCH_plan.json this
// way). The global -plan flag also forces a strategy for the prune
// experiment's filtered contexts.
//
// The vector experiment measures the vector-representation fast path
// (internal/vector): select, intersect and difference over convex-polygon
// and triangulated-concave-polygon workloads, once with every decision
// forced through the Fourier-Motzkin eliminator (-plan dense), once with
// the exact polygon clipper forced (-plan vector) and once under the
// cost-based planner (auto), -rounds times each. It reports wall time,
// raw FM decision counts (constraint.DecisionCount deltas), sat-oracle
// decisions and the vector counters (hits, fallbacks, float rejects),
// derives the FM-decision reduction and the speedup of vector over the
// FM baseline, checks that every mode's output is byte-identical (failing
// otherwise), and -json writes the measurements (the `make bench-vector`
// target writes BENCH_vector.json this way).
//
// The diff experiment runs the semantic oracle's differential harness
// (internal/oracle): -n random (relation, operator) cases across all seven
// CQA operators, engine output vs the naive reference evaluator, exact
// rational membership compared on witness point sets. -seed makes the run
// reproducible, -par sets the engine's worker pool, -spatial draws
// polygon-shaped spatial inputs (the vector fast path's workload) instead
// of random heterogeneous ones, the global -plan forces the engine's
// pairing strategy under test, and -json writes the
// report (cases, per-operator counts, points compared, minimised failure
// pairs) as a JSON object. Any disagreement is printed and fails the run
// with a nonzero exit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"cdb/internal/constraint"
	"cdb/internal/cqa"
	"cdb/internal/datagen"
	"cdb/internal/db"
	"cdb/internal/exec"
	"cdb/internal/experiments"
	"cdb/internal/oracle"
	"cdb/internal/rational"
	"cdb/internal/relation"
	"cdb/internal/snapshot"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cdbbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("cdbbench", flag.ContinueOnError)
	expt := fs.String("expt", "all", "experiment: fig4 | fig5 | exp3 | corner | cqa | canon | prune | plan | vector | diff | snapshot | all")
	scale := fs.Int("scale", 1, "shrink factor for the workload (1 = paper scale)")
	page := fs.Int("page", 4096, "page size in bytes (one R*-tree node per page)")
	buckets := fs.Int("buckets", 8, "buckets per rendered series")
	seed := fs.Int64("seed", 0, "override the workload seed (0 = default)")
	verify := fs.Bool("verify", false, "verify the paper's qualitative claims against the measurements")
	par := fs.Int("par", 0, "cqa/canon experiments: worker-pool size (0 = GOMAXPROCS)")
	cqaSize := fs.Int("cqasize", 48, "cqa/canon experiments: tuples per input relation")
	stats := fs.Bool("stats", false, "cqa/canon experiments: print the per-operator execution table")
	rounds := fs.Int("rounds", 3, "canon experiment: times to repeat the workload")
	satCache := fs.Int("sat-cache", 32768, "canon experiment: warm-run sat-cache size in entries")
	jsonPath := fs.String("json", "", "cqa/canon/diff experiments: write the measurements to this JSON file")
	cases := fs.Int("n", 100, "diff experiment: number of random (relation, operator) cases")
	spatial := fs.Bool("spatial", false, "diff experiment: draw polygon-shaped spatial inputs")
	plan := fs.String("plan", exec.PlanAuto, "pairing strategy for the prune experiment's filtered contexts and the diff experiment's engine: auto | dense | sweep | vector")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !exec.ValidPlanMode(*plan) {
		return fmt.Errorf("invalid -plan %q (want auto, dense, sweep or vector)", *plan)
	}
	p := datagen.Scaled(*scale)
	if *seed != 0 {
		p.Seed = *seed
	}
	if *expt == "cqa" {
		return runCQA(p, *par, *cqaSize, *jsonPath, *stats)
	}
	if *expt == "canon" {
		return runCanon(p, *par, *cqaSize, *rounds, *satCache, *jsonPath, *stats)
	}
	if *expt == "prune" {
		return runPrune(p, *par, *cqaSize, *rounds, *plan, *jsonPath, *stats)
	}
	if *expt == "plan" {
		return runPlan(p, *par, *cqaSize, *rounds, *jsonPath, *stats)
	}
	if *expt == "vector" {
		return runVector(p, *par, *cqaSize, *rounds, *jsonPath, *stats)
	}
	if *expt == "diff" {
		return runDiff(*seed, *cases, *par, *plan, *spatial, *jsonPath)
	}
	if *expt == "snapshot" {
		return runSnapshot(p, *cqaSize*8, *rounds*30, *jsonPath)
	}
	fmt.Printf("workload: %d boxes, %d queries, coords [0,%g], sizes [%g,%g], seed %d, page %d bytes\n\n",
		p.NumData, p.NumQueries, p.CoordMax, p.SizeMin, p.SizeMax, p.Seed, *page)

	var f4a, f4b, f5a, f5b, corner experiments.Series
	var err error
	show := func(s experiments.Series) {
		fmt.Println(s.Render(*buckets))
	}
	wantAll := *expt == "all" || *verify

	if *expt == "fig4" || wantAll {
		if f4a, err = experiments.Figure4A(p, *page); err != nil {
			return err
		}
		show(f4a)
		if f4b, err = experiments.Figure4B(p, *page); err != nil {
			return err
		}
		show(f4b)
	}
	if *expt == "fig5" || wantAll {
		if f5a, err = experiments.Figure5A(p, *page); err != nil {
			return err
		}
		show(f5a)
		if f5b, err = experiments.Figure5B(p, *page); err != nil {
			return err
		}
		show(f5b)
	}
	if *expt == "exp3" || wantAll {
		e3, err := experiments.Experiment3(p, *page)
		if err != nil {
			return err
		}
		show(e3)
	}
	if *expt == "corner" || wantAll {
		if corner, err = experiments.Corner(p, *page); err != nil {
			return err
		}
		show(corner)
	}
	switch *expt {
	case "fig4", "fig5", "exp3", "corner", "all":
	default:
		return fmt.Errorf("unknown experiment %q", *expt)
	}

	if *verify {
		bad := experiments.VerifyShapes(f4a, f4b, f5a, f5b, corner)
		if len(bad) == 0 {
			fmt.Println("shape verification: all of the paper's qualitative claims hold on this run")
		} else {
			for _, b := range bad {
				fmt.Println("shape violation:", b)
			}
			return fmt.Errorf("%d shape violations", len(bad))
		}
	}
	return nil
}

// cqaOpResult is one operator's measurement in the cqa experiment's
// -json output.
type cqaOpResult struct {
	Operator     string  `json:"operator"`
	SequentialMS float64 `json:"sequential_ms"`
	ParallelMS   float64 `json:"parallel_ms"`
	Speedup      float64 `json:"speedup"`
	TuplesIn     int64   `json:"tuples_in"`
	TuplesOut    int64   `json:"tuples_out"`
	SatChecks    int64   `json:"sat_checks"`
	PrunedUnsat  int64   `json:"pruned_unsat"`
	CacheHits    int64   `json:"cache_hits"`
	CacheMisses  int64   `json:"cache_misses"`
	FMDecisions  int64   `json:"fm_decisions"`
}

// cqaResult is the measurement record of the cqa experiment (its -json
// output shape); the per-operator stats are from the parallel run.
type cqaResult struct {
	Experiment    string        `json:"experiment"`
	TuplesPerSide int           `json:"tuples_per_side"`
	Workers       int           `json:"workers"`
	Operators     []cqaOpResult `json:"operators"`
}

// runCQA times the parallelised CQA operators over workload-derived
// constraint relations, sequentially and under the worker pool, and
// reports the speedup. Parallel output is byte-identical to sequential
// output (checked here on every run), so the timings compare equal work.
// -json writes the timings plus the parallel run's per-operator stats as
// a JSON object.
func runCQA(p datagen.Params, par, size int, jsonPath string, stats bool) error {
	// The experiment measures the worker pool against the sequential loop
	// over equal work, so the candidate filter is off in both contexts —
	// with it on, the dense pair space never materialises and the timings
	// would mostly measure the filter (that is the prune experiment's job).
	ecSeq := exec.New(1)
	ecSeq.NoPrune = true
	ecPar := exec.New(par)
	ecPar.SeqThreshold = 1
	ecPar.NoPrune = true
	r1 := datagen.BoxRelation(p, size, 0)
	p2 := p
	p2.Seed = p.Seed + 1000
	r2 := datagen.BoxRelation(p2, size, 0)
	// A cross-product-style second input: no shared relational attribute,
	// so every tuple pair reaches the satisfiability check.
	r2x, err := cqa.Rename(r2, "id", "id2")
	if err != nil {
		return err
	}
	cond := cqa.Condition{
		cqa.AttrCmpConst("x", cqa.OpLe, rational.FromInt(1500)),
		cqa.AttrCmpConst("y", cqa.OpNe, rational.FromInt(700)),
	}
	fmt.Printf("cqa operators: %d tuples per side (%d pairs), %d workers vs sequential\n\n",
		size, size*size, ecPar.Workers())
	type op struct {
		name string
		run  func(ec *exec.Context) (*relation.Relation, error)
	}
	ops := []op{
		{"join", func(ec *exec.Context) (*relation.Relation, error) { return cqa.JoinCtx(ec, r1, r2x) }},
		{"select", func(ec *exec.Context) (*relation.Relation, error) { return cqa.SelectCtx(ec, r1, cond) }},
		{"intersect", func(ec *exec.Context) (*relation.Relation, error) { return cqa.IntersectCtx(ec, r1, r2) }},
		{"difference", func(ec *exec.Context) (*relation.Relation, error) { return cqa.DifferenceCtx(ec, r1, r2) }},
	}
	res := cqaResult{Experiment: "cqa", TuplesPerSide: size, Workers: ecPar.Workers()}
	fmt.Printf("%-12s %12s %12s %8s\n", "operator", "sequential", "parallel", "speedup")
	for _, o := range ops {
		t0 := time.Now()
		seqOut, err := o.run(ecSeq)
		if err != nil {
			return fmt.Errorf("%s sequential: %w", o.name, err)
		}
		seqWall := time.Since(t0)
		recorded := len(ecPar.Stats())
		t0 = time.Now()
		parOut, err := o.run(ecPar)
		if err != nil {
			return fmt.Errorf("%s parallel: %w", o.name, err)
		}
		parWall := time.Since(t0)
		if seqOut.String() != parOut.String() {
			return fmt.Errorf("%s: parallel output diverges from sequential", o.name)
		}
		fmt.Printf("%-12s %12s %12s %7.2fx\n", o.name,
			seqWall.Round(time.Microsecond), parWall.Round(time.Microsecond),
			float64(seqWall)/float64(parWall))
		// Aggregate the parallel run's stats records (some operators record
		// more than one: intersect is a join plus a select, for instance).
		opRes := cqaOpResult{
			Operator:     o.name,
			SequentialMS: float64(seqWall) / float64(time.Millisecond),
			ParallelMS:   float64(parWall) / float64(time.Millisecond),
			Speedup:      float64(seqWall) / float64(parWall),
		}
		for _, s := range ecPar.Stats()[recorded:] {
			opRes.TuplesIn += s.TuplesIn
			opRes.TuplesOut += s.TuplesOut
			opRes.SatChecks += s.SatChecks
			opRes.PrunedUnsat += s.PrunedUnsat
			opRes.CacheHits += s.CacheHits
			opRes.CacheMisses += s.CacheMisses
			opRes.FMDecisions += s.FMDecisions
		}
		res.Operators = append(res.Operators, opRes)
	}
	if stats {
		fmt.Println("\nparallel run, per-operator stats:")
		fmt.Print(exec.FormatStats(ecPar.Summary()))
	}
	if jsonPath != "" {
		b, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", jsonPath)
	}
	return nil
}

// canonResult is the measurement record of the canon experiment (also its
// -json output shape).
type canonResult struct {
	Experiment     string  `json:"experiment"`
	TuplesPerSide  int     `json:"tuples_per_side"`
	Rounds         int     `json:"rounds"`
	Workers        int     `json:"workers"`
	CacheSize      int     `json:"cache_size"`
	ColdDecisions  int64   `json:"cold_raw_decisions"`
	WarmDecisions  int64   `json:"warm_raw_decisions"`
	DecisionsSaved int64   `json:"raw_decisions_saved"`
	CacheHits      int64   `json:"cache_hits"`
	CacheMisses    int64   `json:"cache_misses"`
	HitRate        float64 `json:"hit_rate"`
	Evictions      int64   `json:"evictions"`
	Collisions     int64   `json:"collisions"`
	ColdWallMS     float64 `json:"cold_wall_ms"`
	WarmWallMS     float64 `json:"warm_wall_ms"`
	Identical      bool    `json:"outputs_identical"`
}

// runCanon measures what the canonical-form sat-cache saves: the same CQA
// operator workload (join, select, intersect, union, difference over
// workload-derived constraint relations) repeated `rounds` times, once cold
// — every satisfiability question answered by the raw Fourier-Motzkin
// eliminator — and once warm, with one bounded cache shared across the
// rounds. The raw decision counts come from constraint.DecisionCount, so
// they count eliminator runs, not operator-level checks. The warm output
// must be byte-identical to the cold output; the run fails otherwise.
func runCanon(p datagen.Params, par, size, rounds, cacheSize int, jsonPath string, stats bool) error {
	if rounds < 1 {
		rounds = 1
	}
	r1 := datagen.BoxRelation(p, size, 0)
	p2 := p
	p2.Seed = p.Seed + 1000
	r2 := datagen.BoxRelation(p2, size, 0)
	r2x, err := cqa.Rename(r2, "id", "id2")
	if err != nil {
		return err
	}
	cond := cqa.Condition{
		cqa.AttrCmpConst("x", cqa.OpLe, rational.FromInt(1500)),
		cqa.AttrCmpConst("y", cqa.OpNe, rational.FromInt(700)),
	}
	// workload runs every operator once and returns the concatenated
	// rendered outputs (the byte-identity witness).
	workload := func(ec *exec.Context) (string, error) {
		var dump strings.Builder
		runs := []func() (*relation.Relation, error){
			func() (*relation.Relation, error) { return cqa.JoinCtx(ec, r1, r2x) },
			func() (*relation.Relation, error) { return cqa.SelectCtx(ec, r1, cond) },
			func() (*relation.Relation, error) { return cqa.IntersectCtx(ec, r1, r2) },
			func() (*relation.Relation, error) { return cqa.UnionCtx(ec, r1, r2) },
			func() (*relation.Relation, error) { return cqa.DifferenceCtx(ec, r1, r2) },
		}
		for _, run := range runs {
			out, err := run()
			if err != nil {
				return "", err
			}
			dump.WriteString(out.String())
			dump.WriteByte('\n')
		}
		return dump.String(), nil
	}
	repeat := func(ec *exec.Context) (dump string, decisions int64, wall time.Duration, err error) {
		base := constraint.DecisionCount()
		t0 := time.Now()
		for i := 0; i < rounds; i++ {
			dump, err = workload(ec)
			if err != nil {
				return "", 0, 0, err
			}
		}
		return dump, constraint.DecisionCount() - base, time.Since(t0), nil
	}

	// Filter off in both runs: the experiment counts what the sat-cache
	// alone saves, so every pair must actually reach a decision.
	ecCold := exec.New(par)
	ecCold.SeqThreshold = 1
	ecCold.NoPrune = true
	coldDump, coldDecisions, coldWall, err := repeat(ecCold)
	if err != nil {
		return fmt.Errorf("canon cold: %w", err)
	}

	cache := constraint.NewSatCache(cacheSize)
	ecWarm := exec.New(par)
	ecWarm.SeqThreshold = 1
	ecWarm.NoPrune = true
	ecWarm.SatCache = cache
	warmDump, warmDecisions, warmWall, err := repeat(ecWarm)
	if err != nil {
		return fmt.Errorf("canon warm: %w", err)
	}

	cs := cache.Stats()
	res := canonResult{
		Experiment:     "canon",
		TuplesPerSide:  size,
		Rounds:         rounds,
		Workers:        ecWarm.Workers(),
		CacheSize:      cacheSize,
		ColdDecisions:  coldDecisions,
		WarmDecisions:  warmDecisions,
		DecisionsSaved: coldDecisions - warmDecisions,
		CacheHits:      cs.Hits,
		CacheMisses:    cs.Misses,
		HitRate:        cs.HitRate(),
		Evictions:      cs.Evictions,
		Collisions:     cs.Collisions,
		ColdWallMS:     float64(coldWall) / float64(time.Millisecond),
		WarmWallMS:     float64(warmWall) / float64(time.Millisecond),
		Identical:      coldDump == warmDump,
	}

	fmt.Printf("canonical-form sat-cache: %d tuples per side, %d rounds, %d workers, cache %d entries\n\n",
		size, rounds, res.Workers, cacheSize)
	fmt.Printf("%-28s %12s %12s\n", "", "cold", "warm")
	fmt.Printf("%-28s %12d %12d\n", "raw FM decisions", coldDecisions, warmDecisions)
	fmt.Printf("%-28s %12s %12s\n", "wall time",
		coldWall.Round(time.Microsecond), warmWall.Round(time.Microsecond))
	fmt.Printf("\nsat-cache: %s\n", cs)
	fmt.Printf("raw decisions saved by the cache: %d (%.1f%%)\n",
		res.DecisionsSaved, 100*float64(res.DecisionsSaved)/float64(maxInt64(coldDecisions, 1)))
	if !res.Identical {
		return fmt.Errorf("canon: warm output diverges from cold output")
	}
	fmt.Println("outputs byte-identical with and without the cache")
	if stats {
		fmt.Println("\nwarm run, per-operator stats:")
		fmt.Print(exec.FormatStats(ecWarm.Summary()))
	}
	if jsonPath != "" {
		b, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", jsonPath)
	}
	return nil
}

// pruneOpResult is one (workload, operator) measurement of the prune
// experiment.
type pruneOpResult struct {
	Workload          string  `json:"workload"`
	Operator          string  `json:"operator"`
	PairsTotal        int64   `json:"pairs_total"`
	PairsPruned       int64   `json:"pairs_pruned"`
	DenseSatChecks    int64   `json:"dense_sat_checks"`
	FilteredSatChecks int64   `json:"filtered_sat_checks"`
	SatCheckRatio     float64 `json:"sat_check_ratio"` // dense / filtered; 0 when filtered is 0
	DenseWallMS       float64 `json:"dense_wall_ms"`
	FilteredWallMS    float64 `json:"filtered_wall_ms"`
	WallDeltaPct      float64 `json:"wall_delta_pct"` // filtered vs dense; negative = filter is faster
	TuplesOut         int64   `json:"tuples_out"`
	OutputsIdentical  bool    `json:"outputs_identical"`
}

// pruneResult is the prune experiment's measurement record (also its
// -json output shape).
type pruneResult struct {
	Experiment    string          `json:"experiment"`
	TuplesPerSide int             `json:"tuples_per_side"`
	Rounds        int             `json:"rounds"`
	Workers       int             `json:"workers"`
	Results       []pruneOpResult `json:"results"`
}

// relDump renders a relation in storage order, so equal dumps mean
// byte-identical output including tuple order (Relation.String sorts).
func relDump(r *relation.Relation) string {
	var b strings.Builder
	b.WriteString(r.Schema().String())
	for _, t := range r.Tuples() {
		b.WriteByte('\n')
		b.WriteString(t.String())
	}
	return b.String()
}

// runPrune measures the filter-and-refine candidate filter: the binary
// operators over three workload shapes, filter off (the dense nested
// loop) vs on, `rounds` repetitions each. See the package comment for the
// workload rationale. Outputs must be byte-identical between the two
// modes on every (workload, operator) pair; the run fails otherwise.
func runPrune(p datagen.Params, par, size, rounds int, plan, jsonPath string, stats bool) error {
	if rounds < 1 {
		rounds = 1
	}
	centerSeed := p.Seed + 77 // shared cluster geography across both inputs
	pDense := p
	pDense.SizeMin = 50 // big boxes in one tight cluster: nearly every pair overlaps
	p2 := p
	p2.Seed = p.Seed + 1000
	p2Dense := pDense
	p2Dense.Seed = p.Seed + 1000
	type workload struct {
		name   string
		r1, r2 *relation.Relation
		ops    []string
	}
	// difference is skipped on the dense workload: with nearly every
	// subtrahend intersecting every minuend, the staircase subtraction
	// fragments combinatorially and the run time has nothing to do with
	// the filter under measurement.
	workloads := []workload{
		{"dense",
			datagen.ClusteredBoxRelation(pDense, size, 1, 10, centerSeed),
			datagen.ClusteredBoxRelation(p2Dense, size, 1, 10, centerSeed),
			[]string{"join", "intersect"}},
		{"skewed-bucket",
			datagen.SkewedBoxRelation(p, size, 12),
			datagen.SkewedBoxRelation(p2, size, 12),
			[]string{"join", "intersect", "difference"}},
		{"clustered",
			datagen.ClusteredBoxRelation(p, size, 8, 60, centerSeed),
			datagen.ClusteredBoxRelation(p2, size, 8, 60, centerSeed),
			[]string{"join", "intersect", "difference"}},
	}
	opFuncs := map[string]func(ec *exec.Context, r1, r2 *relation.Relation) (*relation.Relation, error){
		"join":       cqa.JoinCtx,
		"intersect":  cqa.IntersectCtx,
		"difference": cqa.DifferenceCtx,
	}
	ecDense := exec.New(par)
	ecDense.SeqThreshold = 1
	ecDense.NoPrune = true
	ecFilt := exec.New(par)
	ecFilt.SeqThreshold = 1
	ecFilt.PlanMode = plan

	res := pruneResult{Experiment: "prune", TuplesPerSide: size, Rounds: rounds, Workers: ecFilt.Workers()}
	fmt.Printf("filter-and-refine: %d tuples per side (%d pairs), %d rounds, %d workers\n\n",
		size, size*size, rounds, res.Workers)
	fmt.Printf("%-16s %-12s %10s %10s %10s %10s %12s %12s %8s\n",
		"workload", "operator", "pairs", "filtered", "sat dense", "sat filt",
		"wall dense", "wall filt", "Δwall")
	identical := true
	for _, w := range workloads {
		for _, opName := range w.ops {
			op := opFuncs[opName]
			measure := func(ec *exec.Context) (string, time.Duration, int64, int64, int64, int64, error) {
				var out *relation.Relation
				recorded := len(ec.Stats())
				t0 := time.Now()
				for i := 0; i < rounds; i++ {
					var err error
					out, err = op(ec, w.r1, w.r2)
					if err != nil {
						return "", 0, 0, 0, 0, 0, err
					}
				}
				wall := time.Since(t0)
				var sat, pairs, pruned int64
				for _, s := range ec.Stats()[recorded:] {
					sat += s.SatChecks
					pairs += s.PairsTotal
					pruned += s.PairsPruned
				}
				return relDump(out), wall, sat, pairs, pruned, int64(out.Len()), nil
			}
			denseDump, denseWall, denseSat, _, _, tuplesOut, err := measure(ecDense)
			if err != nil {
				return fmt.Errorf("%s %s dense: %w", w.name, opName, err)
			}
			filtDump, filtWall, filtSat, pairs, pruned, _, err := measure(ecFilt)
			if err != nil {
				return fmt.Errorf("%s %s filtered: %w", w.name, opName, err)
			}
			r := pruneOpResult{
				Workload:          w.name,
				Operator:          opName,
				PairsTotal:        pairs / int64(rounds),
				PairsPruned:       pruned / int64(rounds),
				DenseSatChecks:    denseSat / int64(rounds),
				FilteredSatChecks: filtSat / int64(rounds),
				DenseWallMS:       float64(denseWall) / float64(time.Millisecond) / float64(rounds),
				FilteredWallMS:    float64(filtWall) / float64(time.Millisecond) / float64(rounds),
				TuplesOut:         tuplesOut,
				OutputsIdentical:  denseDump == filtDump,
			}
			if r.FilteredSatChecks > 0 {
				r.SatCheckRatio = float64(r.DenseSatChecks) / float64(r.FilteredSatChecks)
			}
			if denseWall > 0 {
				r.WallDeltaPct = 100 * (float64(filtWall) - float64(denseWall)) / float64(denseWall)
			}
			identical = identical && r.OutputsIdentical
			res.Results = append(res.Results, r)
			fmt.Printf("%-16s %-12s %10d %10d %10d %10d %12s %12s %+7.1f%%\n",
				w.name, opName, r.PairsTotal, r.PairsPruned, r.DenseSatChecks, r.FilteredSatChecks,
				(denseWall / time.Duration(rounds)).Round(time.Microsecond),
				(filtWall / time.Duration(rounds)).Round(time.Microsecond),
				r.WallDeltaPct)
		}
	}
	if stats {
		fmt.Println("\nfiltered runs, per-operator stats:")
		fmt.Print(exec.FormatStats(ecFilt.Summary()))
	}
	if jsonPath != "" {
		b, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", jsonPath)
	}
	if !identical {
		return fmt.Errorf("prune: filtered output diverges from dense output")
	}
	fmt.Println("\noutputs byte-identical with the filter on and off, every workload and operator")
	return nil
}

// planModeResult is one (workload, operator, strategy) measurement of
// the plan experiment.
type planModeResult struct {
	Mode      string  `json:"mode"`
	WallMS    float64 `json:"wall_ms"`
	SatChecks int64   `json:"sat_checks"`
	EstPairs  int64   `json:"est_pairs"`
	ActPairs  int64   `json:"act_pairs"`
}

// planOpResult groups one (workload, operator)'s per-strategy runs.
type planOpResult struct {
	Workload         string           `json:"workload"`
	Operator         string           `json:"operator"`
	AutoStrategy     string           `json:"auto_strategy"` // what the cost model picked under auto
	Modes            []planModeResult `json:"modes"`
	TuplesOut        int64            `json:"tuples_out"`
	OutputsIdentical bool             `json:"outputs_identical"`
}

// planResult is the plan experiment's measurement record (also its -json
// output shape).
type planResult struct {
	Experiment    string         `json:"experiment"`
	TuplesPerSide int            `json:"tuples_per_side"`
	Rounds        int            `json:"rounds"`
	Workers       int            `json:"workers"`
	Results       []planOpResult `json:"results"`
}

// runPlan measures the filter stage's candidate enumerations: the binary
// operators over the prune experiment's three workload shapes, each
// enumeration forced in turn plus the cost-based auto mode, `rounds`
// repetitions each. Every mode's output must be byte-identical to forced
// dense (the enumerations are orders over the same surviving set); the
// run fails otherwise.
func runPlan(p datagen.Params, par, size, rounds int, jsonPath string, stats bool) error {
	if rounds < 1 {
		rounds = 1
	}
	centerSeed := p.Seed + 77
	pDense := p
	pDense.SizeMin = 50
	p2 := p
	p2.Seed = p.Seed + 1000
	p2Dense := pDense
	p2Dense.Seed = p.Seed + 1000
	type workload struct {
		name   string
		r1, r2 *relation.Relation
		ops    []string
	}
	// difference is skipped on the dense workload for the prune
	// experiment's reason: the staircase subtraction fragments
	// combinatorially there and measures nothing about pairing.
	workloads := []workload{
		{"dense",
			datagen.ClusteredBoxRelation(pDense, size, 1, 10, centerSeed),
			datagen.ClusteredBoxRelation(p2Dense, size, 1, 10, centerSeed),
			[]string{"join", "intersect"}},
		{"skewed-bucket",
			datagen.SkewedBoxRelation(p, size, 12),
			datagen.SkewedBoxRelation(p2, size, 12),
			[]string{"join", "intersect", "difference"}},
		{"clustered",
			datagen.ClusteredBoxRelation(p, size, 8, 60, centerSeed),
			datagen.ClusteredBoxRelation(p2, size, 8, 60, centerSeed),
			[]string{"join", "intersect", "difference"}},
	}
	opFuncs := map[string]func(ec *exec.Context, r1, r2 *relation.Relation) (*relation.Relation, error){
		"join":       cqa.JoinCtx,
		"intersect":  cqa.IntersectCtx,
		"difference": cqa.DifferenceCtx,
	}
	modes := []string{exec.PlanDense, exec.PlanSweep, exec.PlanAuto}
	res := planResult{Experiment: "plan", TuplesPerSide: size, Rounds: rounds, Workers: exec.New(par).Workers()}
	fmt.Printf("pairing strategies: %d tuples per side (%d pairs), %d rounds, %d workers\n\n",
		size, size*size, rounds, res.Workers)
	fmt.Printf("%-16s %-12s %-7s %12s %10s %10s %10s %-8s\n",
		"workload", "operator", "mode", "wall", "sat", "est", "act", "auto→")
	identical := true
	ecs := map[string]*exec.Context{}
	for _, mode := range modes {
		ec := exec.New(par)
		ec.SeqThreshold = 1
		ec.PlanMode = mode
		ecs[mode] = ec
	}
	for _, w := range workloads {
		for _, opName := range w.ops {
			op := opFuncs[opName]
			r := planOpResult{Workload: w.name, Operator: opName, OutputsIdentical: true}
			var denseDump string
			for _, mode := range modes {
				ec := ecs[mode]
				recorded := len(ec.Stats())
				var out *relation.Relation
				t0 := time.Now()
				for i := 0; i < rounds; i++ {
					var err error
					out, err = op(ec, w.r1, w.r2)
					if err != nil {
						return fmt.Errorf("%s %s %s: %w", w.name, opName, mode, err)
					}
				}
				wall := time.Since(t0)
				m := planModeResult{Mode: mode, WallMS: float64(wall) / float64(time.Millisecond) / float64(rounds)}
				for _, s := range ec.Stats()[recorded:] {
					m.SatChecks += s.SatChecks
					m.EstPairs += s.EstPairs
					m.ActPairs += s.PairsTotal - s.PairsPruned
					if mode == exec.PlanAuto && s.Strategy != "" && r.AutoStrategy == "" {
						r.AutoStrategy = s.Strategy
					}
				}
				m.SatChecks /= int64(rounds)
				m.EstPairs /= int64(rounds)
				m.ActPairs /= int64(rounds)
				r.TuplesOut = int64(out.Len())
				dumpStr := relDump(out)
				if mode == exec.PlanDense {
					denseDump = dumpStr
				} else if dumpStr != denseDump {
					r.OutputsIdentical = false
				}
				r.Modes = append(r.Modes, m)
				autoCol := ""
				if mode == exec.PlanAuto {
					autoCol = r.AutoStrategy
				}
				fmt.Printf("%-16s %-12s %-7s %12s %10d %10d %10d %-8s\n",
					w.name, opName, mode, (wall / time.Duration(rounds)).Round(time.Microsecond),
					m.SatChecks, m.EstPairs, m.ActPairs, autoCol)
			}
			identical = identical && r.OutputsIdentical
			res.Results = append(res.Results, r)
		}
	}
	if stats {
		fmt.Println("\nauto runs, per-operator stats:")
		fmt.Print(exec.FormatStats(ecs[exec.PlanAuto].Summary()))
	}
	if jsonPath != "" {
		b, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", jsonPath)
	}
	if !identical {
		return fmt.Errorf("plan: some strategy's output diverges from forced dense")
	}
	fmt.Println("\noutputs byte-identical across dense, sweep and auto, every workload and operator")
	return nil
}

// vectorModeResult is one (workload, operator, mode) measurement of the
// vector experiment (the _ms leaves are benchdiff-compatible).
type vectorModeResult struct {
	Mode         string  `json:"mode"`
	WallMS       float64 `json:"wall_ms"`
	FMDecisions  int64   `json:"fm_decisions"`
	SatChecks    int64   `json:"sat_checks"`
	VectorHits   int64   `json:"vector_hits"`
	VectorFalls  int64   `json:"vector_fallbacks"`
	FloatRejects int64   `json:"float_rejects"`
}

// vectorOpResult groups one (workload, operator)'s per-mode runs and the
// derived fast-path wins: FMReduction = FM decisions under the forced-FM
// baseline / FM decisions under forced vector (the satellite acceptance
// gate reads this), Speedup = baseline wall / vector wall.
type vectorOpResult struct {
	Workload         string             `json:"workload"`
	Operator         string             `json:"operator"`
	TuplesOut        int64              `json:"tuples_out"`
	OutputsIdentical bool               `json:"outputs_identical"`
	FMReduction      float64            `json:"fm_reduction"`
	Speedup          float64            `json:"speedup"`
	Modes            []vectorModeResult `json:"modes"`
}

// vectorResult is the vector experiment's measurement record (-json
// output; `make bench-vector` writes it to BENCH_vector.json).
type vectorResult struct {
	Experiment    string           `json:"experiment"`
	TuplesPerSide int              `json:"tuples_per_side"`
	Rounds        int              `json:"rounds"`
	Workers       int              `json:"workers"`
	Results       []vectorOpResult `json:"results"`
}

// runVector measures the vector-representation fast path: spatial
// operators over polygon-shaped constraint relations, decided once purely
// by the Fourier-Motzkin eliminator (forced dense), once by exact polygon
// clipping (forced vector) and once under the cost-based planner (auto).
// Every mode must produce byte-identical output; the run fails otherwise.
func runVector(p datagen.Params, par, size, rounds int, jsonPath string, stats bool) error {
	if rounds < 1 {
		rounds = 1
	}
	centerSeed := p.Seed + 123
	p2 := p
	p2.Seed = p.Seed + 2000
	spread := p.CoordMax / 12
	convex1 := datagen.PolygonRelation(p, size, 6, spread, centerSeed)
	convex2 := datagen.PolygonRelation(p2, size, 6, spread, centerSeed)
	concave1 := datagen.ConcavePolygonRelation(p, size, 6, spread, centerSeed)
	concave2 := datagen.ConcavePolygonRelation(p2, size, 6, spread, centerSeed)
	// A two-atom spatial selection cutting through the cluster field: keep
	// the half-plane below the main diagonal, then a vertical slab.
	selCond := cqa.Condition{
		cqa.Linear(constraint.Var("x").Add(constraint.Var("y")), cqa.OpLe,
			constraint.Const(rational.FromInt(int64(p.CoordMax)))),
		cqa.AttrCmpConst("x", cqa.OpGe, rational.FromInt(int64(p.CoordMax/4))),
	}
	runs := []struct {
		workload, operator string
		run                func(ec *exec.Context) (*relation.Relation, error)
	}{
		{"poly-convex", "select", func(ec *exec.Context) (*relation.Relation, error) {
			return cqa.SelectCtx(ec, convex1, selCond)
		}},
		{"poly-convex", "intersect", func(ec *exec.Context) (*relation.Relation, error) {
			return cqa.IntersectCtx(ec, convex1, convex2)
		}},
		{"poly-convex", "difference", func(ec *exec.Context) (*relation.Relation, error) {
			return cqa.DifferenceCtx(ec, convex1, convex2)
		}},
		{"poly-concave", "select", func(ec *exec.Context) (*relation.Relation, error) {
			return cqa.SelectCtx(ec, concave1, selCond)
		}},
		{"poly-concave", "intersect", func(ec *exec.Context) (*relation.Relation, error) {
			return cqa.IntersectCtx(ec, concave1, concave2)
		}},
		{"poly-concave", "difference", func(ec *exec.Context) (*relation.Relation, error) {
			return cqa.DifferenceCtx(ec, concave1, concave2)
		}},
	}
	// Forced dense is the pure-FM baseline: the vector refine is gated on
	// the resolved strategy (binary operators) and on auto/vector mode
	// (select), so dense never consults the clipper.
	modes := []string{exec.PlanDense, exec.PlanVector, exec.PlanAuto}
	res := vectorResult{Experiment: "vector", TuplesPerSide: size, Rounds: rounds, Workers: exec.New(par).Workers()}
	fmt.Printf("vector fast path: %d tuples per side, %d rounds, %d workers\n\n", size, rounds, res.Workers)
	fmt.Printf("%-14s %-12s %-7s %12s %10s %10s %10s %10s\n",
		"workload", "operator", "mode", "wall", "fm", "sat", "vec", "vec-fb")
	identical := true
	var statEC *exec.Context
	for _, r := range runs {
		or := vectorOpResult{Workload: r.workload, Operator: r.operator, OutputsIdentical: true}
		var baseDump string
		var baseline, vec vectorModeResult
		for _, mode := range modes {
			ec := exec.New(par)
			ec.SeqThreshold = 1
			ec.PlanMode = mode
			fm0 := constraint.DecisionCount()
			var out *relation.Relation
			t0 := time.Now()
			for i := 0; i < rounds; i++ {
				var err error
				out, err = r.run(ec)
				if err != nil {
					return fmt.Errorf("%s %s %s: %w", r.workload, r.operator, mode, err)
				}
			}
			wall := time.Since(t0)
			m := vectorModeResult{
				Mode:        mode,
				WallMS:      float64(wall) / float64(time.Millisecond) / float64(rounds),
				FMDecisions: (constraint.DecisionCount() - fm0) / int64(rounds),
			}
			for _, s := range ec.Stats() {
				m.SatChecks += s.SatChecks
				m.VectorHits += s.VectorHits
				m.VectorFalls += s.VectorFalls
				m.FloatRejects += s.FloatRejects
			}
			m.SatChecks /= int64(rounds)
			m.VectorHits /= int64(rounds)
			m.VectorFalls /= int64(rounds)
			m.FloatRejects /= int64(rounds)
			or.TuplesOut = int64(out.Len())
			dumpStr := relDump(out)
			switch mode {
			case exec.PlanDense:
				baseDump = dumpStr
				baseline = m
			case exec.PlanVector:
				vec = m
				if statEC == nil {
					statEC = ec
				}
			}
			if mode != exec.PlanDense && dumpStr != baseDump {
				or.OutputsIdentical = false
			}
			or.Modes = append(or.Modes, m)
			fmt.Printf("%-14s %-12s %-7s %12s %10d %10d %10d %10d\n",
				r.workload, r.operator, mode, (wall / time.Duration(rounds)).Round(time.Microsecond),
				m.FMDecisions, m.SatChecks, m.VectorHits, m.VectorFalls)
		}
		or.FMReduction = float64(baseline.FMDecisions) / float64(maxInt64(vec.FMDecisions, 1))
		if vec.WallMS > 0 {
			or.Speedup = baseline.WallMS / vec.WallMS
		}
		fmt.Printf("%-14s %-12s %-7s FM decisions %d -> %d (%.1fx), wall %.2fms -> %.2fms (%.2fx)\n",
			r.workload, r.operator, "", baseline.FMDecisions, vec.FMDecisions, or.FMReduction,
			baseline.WallMS, vec.WallMS, or.Speedup)
		identical = identical && or.OutputsIdentical
		res.Results = append(res.Results, or)
	}
	if stats && statEC != nil {
		fmt.Println("\nforced-vector runs, per-operator stats:")
		fmt.Print(exec.FormatStats(statEC.Summary()))
	}
	if jsonPath != "" {
		b, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", jsonPath)
	}
	if !identical {
		return fmt.Errorf("vector: some mode's output diverges from the FM baseline")
	}
	fmt.Println("\noutputs byte-identical across dense (pure FM), vector and auto, every workload and operator")
	return nil
}

// runDiff runs the semantic oracle's differential harness: n seeded random
// cases across all seven CQA operators, engine vs naive reference
// evaluator, membership compared at every witness point. Failures are
// already minimised by the harness; any disagreement fails the run.
func runDiff(seed int64, n, par int, plan string, spatial bool, jsonPath string) error {
	rep, err := oracle.Diff(oracle.Config{Cases: n, Seed: seed, Workers: par, Plan: plan, Spatial: spatial})
	if err != nil {
		return err
	}
	mode := "heterogeneous"
	if spatial {
		mode = "spatial"
	}
	planName := plan
	if planName == "" {
		planName = exec.PlanAuto
	}
	fmt.Printf("differential oracle: %d %s cases, seed %d, plan %s, %d workers\n\n",
		rep.Cases, mode, rep.Seed, planName, rep.Workers)
	ops := make([]string, 0, len(rep.PerOp))
	for op := range rep.PerOp {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		fmt.Printf("%-12s %6d cases\n", op, rep.PerOp[op])
	}
	fmt.Printf("\nwitness points compared: %d\n", rep.Points)
	if jsonPath != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", jsonPath)
	}
	if len(rep.Failures) > 0 {
		for _, f := range rep.Failures {
			fmt.Printf("\nFAILURE: %s\n", f)
		}
		return fmt.Errorf("diff: %d engine/oracle disagreements in %d cases (seed %d reproduces)",
			len(rep.Failures), rep.Cases, rep.Seed)
	}
	fmt.Println("engine and oracle agree at every witness point")
	return nil
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// snapshotResult is the measurement record of the snapshot experiment
// (-json output; the _ms leaves are benchdiff-compatible).
type snapshotResult struct {
	Experiment      string  `json:"experiment"`
	Tuples          int     `json:"tuples"`
	Pages           int     `json:"pages"`
	PageSize        int     `json:"page_size"`
	CommitBaseMS    float64 `json:"commit_base_ms"`
	CommitDerivedMS float64 `json:"commit_derived_ms"`
	SharedPageRatio float64 `json:"shared_page_ratio"`
	ForkMS          float64 `json:"fork_ms"`
	FullCopyMS      float64 `json:"full_copy_ms"`
	MaterializeMS   float64 `json:"materialize_ms"`
	ForkSpeedup     float64 `json:"fork_speedup_vs_copy"`
	WALBytes        int64   `json:"wal_bytes"`
}

// runSnapshot measures the copy-on-write snapshot store: commit latency
// for a base state and a lightly-mutated derived state, the shared-page
// ratio the derived commit achieves, fork latency (amortised over many
// forks — a fork is a manifest copy, no page I/O), and the full-copy
// baseline (db.Save + db.Load of the same state) a system without CoW
// sharing would pay per branch.
func runSnapshot(p datagen.Params, size, forks int, jsonPath string) error {
	if forks <= 0 {
		forks = 100
	}
	dir, err := os.MkdirTemp("", "cdbbench-snapshot-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := snapshot.Open(dir, snapshot.Options{})
	if err != nil {
		return err
	}
	defer store.Close()

	// Base state: two generated spatial relations. The derived state adds
	// a third, so its commit shares every base page.
	base := db.New()
	if err := base.Put("Boxes", datagen.BoxRelation(p, size, 0)); err != nil {
		return err
	}
	p2 := p
	p2.Seed = p.Seed + 1000
	if err := base.Put("Probes", datagen.BoxRelation(p2, size/2, 0)); err != nil {
		return err
	}
	derived := db.New()
	for _, name := range base.Names() {
		r, _ := base.Get(name)
		if err := derived.Put(name, r); err != nil {
			return err
		}
	}
	p3 := p
	p3.Seed = p.Seed + 2000
	if err := derived.Put("Delta", datagen.BoxRelation(p3, size/4, 0)); err != nil {
		return err
	}

	t0 := time.Now()
	baseSnap, err := store.Commit(base, "", "bench")
	if err != nil {
		return err
	}
	commitBase := time.Since(t0)

	t0 = time.Now()
	derivedSnap, err := store.Commit(derived, baseSnap.ID, "bench")
	if err != nil {
		return err
	}
	commitDerived := time.Since(t0)
	sharedRatio := 0.0
	if derivedSnap.Pages > 0 {
		sharedRatio = float64(derivedSnap.SharedPages) / float64(derivedSnap.Pages)
	}

	t0 = time.Now()
	for i := 0; i < forks; i++ {
		if _, err := store.Fork(baseSnap.ID); err != nil {
			return err
		}
	}
	forkMS := float64(time.Since(t0).Microseconds()) / 1000 / float64(forks)

	// Full-copy baseline: what a branch costs without page sharing.
	t0 = time.Now()
	var buf strings.Builder
	if err := base.Save(&buf); err != nil {
		return err
	}
	if _, err := db.Load(strings.NewReader(buf.String())); err != nil {
		return err
	}
	fullCopy := time.Since(t0)

	t0 = time.Now()
	if _, err := store.Materialize(derivedSnap.ID); err != nil {
		return err
	}
	materialize := time.Since(t0)

	st := store.Stats()
	res := snapshotResult{
		Experiment:      "snapshot",
		Tuples:          base.TupleCount(),
		Pages:           baseSnap.Pages,
		PageSize:        st.PageSize,
		CommitBaseMS:    float64(commitBase.Microseconds()) / 1000,
		CommitDerivedMS: float64(commitDerived.Microseconds()) / 1000,
		SharedPageRatio: sharedRatio,
		ForkMS:          forkMS,
		FullCopyMS:      float64(fullCopy.Microseconds()) / 1000,
		MaterializeMS:   float64(materialize.Microseconds()) / 1000,
		WALBytes:        st.WALBytes,
	}
	if forkMS > 0 {
		res.ForkSpeedup = res.FullCopyMS / forkMS
	}

	fmt.Printf("snapshot store: %d tuples, %d pages of %d bytes\n\n", res.Tuples, res.Pages, res.PageSize)
	fmt.Printf("%-24s %10.3f ms\n", "commit (base)", res.CommitBaseMS)
	fmt.Printf("%-24s %10.3f ms   shared ratio %.2f\n", "commit (derived)", res.CommitDerivedMS, res.SharedPageRatio)
	fmt.Printf("%-24s %10.3f ms   (avg over %d forks)\n", "fork", res.ForkMS, forks)
	fmt.Printf("%-24s %10.3f ms\n", "full copy (save+load)", res.FullCopyMS)
	fmt.Printf("%-24s %10.3f ms\n", "materialize", res.MaterializeMS)
	if res.ForkSpeedup > 0 {
		fmt.Printf("\nfork is %.0fx cheaper than a full copy at this scale\n", res.ForkSpeedup)
	}
	if jsonPath != "" {
		b, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", jsonPath)
	}
	return nil
}
