package main

import (
	"strings"
	"testing"
)

func TestRunSingleExperiments(t *testing.T) {
	for _, expt := range []string{"fig4", "fig5", "exp3", "corner"} {
		if err := run([]string{"-expt", expt, "-scale", "50", "-page", "512"}); err != nil {
			t.Errorf("%s: %v", expt, err)
		}
	}
}

func TestRunVerifySmallScale(t *testing.T) {
	// At 1/5 scale (2,000 boxes) with 512-byte pages every qualitative
	// claim holds. (Below ~1,000 boxes the secondary "advantage size"
	// claim gets noisy — see the page-size note in EXPERIMENTS.md.)
	if err := run([]string{"-verify", "-scale", "5", "-page", "512", "-buckets", "4"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	// The growth-era experiments are retired: benchmark/ measures, the
	// equivalence tests assert byte-identity across modes.
	for _, expt := range []string{"nonsense", "cqa", "canon", "prune", "plan", "vector", "snapshot"} {
		err := run([]string{"-expt", expt, "-scale", "100"})
		if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
			t.Errorf("-expt %s: err = %v, want unknown experiment", expt, err)
		}
	}
	// Plan modes are not user surface: -plan is an unknown flag.
	for _, args := range [][]string{{"-badflag"}, {"-expt", "diff", "-n", "1", "-plan", "vector"}} {
		if err := run(args); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}
