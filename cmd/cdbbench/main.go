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
//	cdbbench -expt diff         # differential check: engine vs semantic oracle
//	cdbbench -scale 10          # 1/10th of the data for a quick run
//	cdbbench -page 512          # page (node) size in bytes
//	cdbbench -buckets 8         # plot buckets per series
//	cdbbench -verify            # check the paper's qualitative claims
//
// End-to-end performance is measured by benchmark/ (BENCHMARK.json), not
// here.
//
// The diff experiment runs the semantic oracle's differential harness
// (internal/oracle): -n random (relation, operator) cases across all seven
// CQA operators and, one case in eight, a random conjunctive rule through the
// calculus front end, engine output vs the naive reference evaluator, exact
// rational membership compared on witness point sets. -seed makes the run
// reproducible, -par sets the engine's worker pool, -spatial draws
// polygon-shaped spatial inputs (the vector fast path's workload) instead
// of random heterogeneous ones, and -json writes the report (cases,
// per-operator counts, points compared, minimised failure pairs) as a JSON
// object. Any disagreement is printed and fails the run with a nonzero
// exit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"cdb/internal/datagen"
	"cdb/internal/experiments"
	"cdb/internal/oracle"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cdbbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("cdbbench", flag.ContinueOnError)
	expt := fs.String("expt", "all", "experiment: fig4 | fig5 | exp3 | corner | diff | all")
	scale := fs.Int("scale", 1, "shrink factor for the workload (1 = paper scale)")
	page := fs.Int("page", 4096, "page size in bytes (one R*-tree node per page)")
	buckets := fs.Int("buckets", 8, "buckets per rendered series")
	seed := fs.Int64("seed", 0, "override the workload seed (0 = default)")
	verify := fs.Bool("verify", false, "verify the paper's qualitative claims against the measurements")
	par := fs.Int("par", 0, "diff experiment: worker-pool size (0 = GOMAXPROCS)")
	jsonPath := fs.String("json", "", "diff experiment: write the report to this JSON file")
	cases := fs.Int("n", 100, "diff experiment: number of random (relation, operator) cases")
	spatial := fs.Bool("spatial", false, "diff experiment: draw polygon-shaped spatial inputs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p := datagen.Scaled(*scale)
	if *seed != 0 {
		p.Seed = *seed
	}
	if *expt == "diff" {
		return runDiff(*seed, *cases, *par, *spatial, *jsonPath)
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

// runDiff runs the semantic oracle's differential harness: n seeded random
// cases across all seven CQA operators and random calculus rules, engine vs
// naive reference evaluator, membership compared at every witness point. Failures are
// already minimised by the harness; any disagreement fails the run.
func runDiff(seed int64, n, par int, spatial bool, jsonPath string) error {
	rep, err := oracle.Diff(oracle.Config{Cases: n, Seed: seed, Workers: par, Spatial: spatial})
	if err != nil {
		return err
	}
	mode := "heterogeneous"
	if spatial {
		mode = "spatial"
	}
	fmt.Printf("differential oracle: %d %s cases, seed %d, %d workers\n\n",
		rep.Cases, mode, rep.Seed, rep.Workers)
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
