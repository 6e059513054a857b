// Command benchmark is the repository's benchmark: a single-process
// driver that generates seeded inputs, boots the real cmd/cqacdbd as a
// child process, drives it closed-loop from two client connections,
// verifies every response against an in-process reference, and prints
// every metric by name and unit. End-to-end numbers come from that
// untraced run; a separate traced pass replays the same requests through
// the layers' public functions for the per-layer numbers and a span file.
// README.md in this directory is the manual.
//
//	go run ./benchmark                          # every workload, both passes
//	go run ./benchmark -workload box-join       # one workload
//	go run ./benchmark -repeat 3                # spread report, fails beyond the bounds
//	bash benchmark/run.sh --workload lookup --seed 1 --seconds 15 --trace 0
//
// The last form is the one BENCHMARK.json names: its last line of output
// is one JSON object with correct, attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// Trace modes: the contract's --trace 0 and --trace 1, and the default
// that runs both passes on one daemon.
const (
	traceOff  = 0
	traceOn   = 1
	traceBoth = 2
)

const (
	warmup = 2 * time.Second
	setups = 3 // set-up runs per untraced run; setup_s is their median
)

func main() {
	// An interrupt cancels the run; the daemon dies with the context.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", runSeconds, "measured window in seconds (halved by -trace 1, whose traced passes take the rest)")
	trace := fs.Int("trace", traceBoth, "0: end-to-end metrics only; 1: per-layer metrics only; 2: both")
	repeat := fs.Int("repeat", 1, "run the set this many times and report the spread of every metric")
	out := fs.String("out", filepath.Join(".bench_build", "out"), "directory for trace-<workload>.json")
	contract := fs.Bool("contract", false, "print BENCHMARK.json as generated from the metric catalogue and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *contract {
		b, err := contractJSON()
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		stdout.Write(b)
		return 0
	}
	selected := workloads
	if *name != "all" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{w}
	}
	if *trace < traceOff || *trace > traceBoth || *seconds <= 0 || *repeat < 1 {
		fmt.Fprintln(stderr, "benchmark: want -trace 0, 1 or 2, -seconds > 0, -repeat >= 1")
		return 2
	}

	bin, built, err := buildDaemon(ctx, filepath.Join(".bench_build", "bin"))
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	fmt.Fprintf(stdout, "# nproc=%d GOMAXPROCS=%d %s seed=%d clients=1 build_s=%.2f\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), *seed, built.Seconds())

	var all [][]*result // per repetition, per workload
	failed := false
	for rep := 0; rep < *repeat; rep++ {
		var set []*result
		for _, w := range selected {
			cfg := newConfig(w, *seed, *seconds, *trace, bin, *out)
			res, err := runWorkload(ctx, cfg)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
				return 2
			}
			if err := printResult(stdout, res, *trace); err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
				return 2
			}
			if !res.ok() {
				failed = true
				fmt.Fprintf(stderr, "benchmark: %s: %d of %d operations failed; first: %v\n",
					w.name, res.failed, res.attempted, res.firstErr)
			}
			set = append(set, res)
		}
		all = append(all, set)
	}
	if *repeat > 1 && !spreadReport(stdout, all, *trace) {
		failed = true
	}
	if len(selected) == 1 && *repeat == 1 {
		if err := printContractLine(stdout, all[0][0], *trace); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
	}
	return exitCode(failed)
}

// exitCode is the process's exit code: non-zero when any operation failed
// or, under -repeat, a spread exceeded its bound.
func exitCode(failed bool) int {
	if failed {
		return 1
	}
	return 0
}

func newConfig(w workload, seed int64, seconds float64, trace int, bin, out string) runConfig {
	cfg := runConfig{
		w: w, seed: seed, pool: w.pool, tracePool: w.tracePool,
		setups: setups, warmup: warmup,
		window:   time.Duration(seconds * float64(time.Second)),
		untraced: trace != traceOn, traced: trace != traceOff,
		daemonBin: bin,
		scratch:   filepath.Join(".bench_build", fmt.Sprintf("run-%d-%s", os.Getpid(), w.name)),
		outDir:    out,
		speed:     newSpeedometer(),
	}
	if trace == traceOn {
		// The window only feeds the process.* metrics here, and set-up is
		// not reported; the traced passes take the time saved.
		cfg.window /= 2
		cfg.setups = 1
	}
	return cfg
}

// reported lists the catalogue entries a trace mode prints.
func reported(trace int) []metric {
	var ms []metric
	if trace != traceOn {
		ms = append(ms, endToEnd...)
	}
	if trace != traceOff {
		ms = append(ms, perLayer...)
	}
	return ms
}

// value looks a catalogue metric up in a result. Every reported metric
// must have been measured and be finite.
func value(res *result, m metric) (float64, error) {
	v, ok := res.metrics[m.name]
	if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("metric %s was not measured (value %v, present %v)", m.name, v, ok)
	}
	return v, nil
}

func printResult(w io.Writer, res *result, trace int) error {
	fmt.Fprintf(w, "== %s: attempted=%d failed=%d failed_share=%.4f latency_samples=%d (%d beyond p95) machine_slowdown=%.2f\n",
		res.workload, res.attempted, res.failed, ratio(float64(res.failed), float64(res.attempted)),
		res.samples, res.samples-int(math.Ceil(0.95*float64(res.samples))), res.metrics["machine.slowdown"])
	if s := res.metrics["machine.slowdown"]; s > trustedSlowdown {
		fmt.Fprintf(w, "# %s: the machine ran %.1f times slower than nominal; beyond %.1f the correction no longer holds: repeat the run\n",
			res.workload, s, trustedSlowdown)
	}
	for _, m := range reported(trace) {
		v, err := value(res, m)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-16s %-42s %14.4f %s\n", res.workload, m.name, v, m.unit)
	}
	return nil
}

// printContractLine prints the result object BENCHMARK.json's driver
// reads from the last line of standard output.
func printContractLine(w io.Writer, res *result, trace int) error {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.ok(), res.attempted, res.failed, map[string]mv{}}
	for _, m := range reported(trace) {
		v, err := value(res, m)
		if err != nil {
			return err
		}
		line.Metrics[m.name] = mv{v, m.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// quartiles returns the first and third quartile of vs the way Python's
// statistics.quantiles(vs, n=4) does (the "exclusive" method), which is
// what the benchmark's driver computes its spreads with. vs needs at
// least two values.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4 // 1-based rank
		i := int(pos)
		if i < 1 {
			return s[0]
		}
		if i >= len(s) {
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return at(1), at(3)
}

// spreadReport prints, per workload and metric, the minimum, median and
// maximum across the repetitions and the relative spread: the distance
// between the first and third quartile over the median (with three
// repetitions that is max-min). It reports false when an end-to-end
// metric's spread exceeds its bound; set-up time is exempt, as it is for
// the driver.
func spreadReport(w io.Writer, all [][]*result, trace int) bool {
	ok := true
	fmt.Fprintf(w, "\n# spread over %d runs\n%-16s %-42s %12s %12s %12s %8s\n",
		len(all), "workload", "metric", "min", "median", "max", "spread")
	for wi := range all[0] {
		for _, m := range reported(trace) {
			var vs []float64
			for _, set := range all {
				vs = append(vs, set[wi].metrics[m.name])
			}
			q1, q3 := quartiles(vs)
			mid := median(vs)
			spread := ratio(q3-q1, math.Abs(mid))
			mark := ""
			if m.bound > 0 && m.name != "setup_s" && spread > m.bound {
				mark = fmt.Sprintf("  > bound %.2f", m.bound)
				ok = false
			}
			fmt.Fprintf(w, "%-16s %-42s %12.4f %12.4f %12.4f %7.1f%%%s\n",
				all[0][wi].workload, m.name, quantile(vs, 0), mid, quantile(vs, 1), 100*spread, mark)
		}
	}
	if !ok {
		fmt.Fprintln(w, "# a spread is beyond its bound: these runs disagree by more than a regression would")
	}
	return ok
}
