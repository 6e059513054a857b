package main

import (
	"encoding/json"
	"math"
	"sort"
)

// metric is one entry of the catalogue. BENCHMARK.json is generated from
// this table (go run ./benchmark -contract) and the smoke test checks the
// two agree.
type metric struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// moves says which end-to-end metric a per-layer metric should move,
	// on which workload (README.md repeats it as a table).
	moves string
}

// endToEnd are the numbers a user of the daemon sees. Failures are not a
// metric here: a metric must never read 0, so they are reported as
// attempted/failed in the result line and fail the run.
//
// Every time is in nominal units: divided by the machine's slowdown
// around the moment it was taken (speed.go). Raw, the same seed spread by
// 8 to 30 % from run to run on the 2-core sandbox and drifted by 60 % over
// a quarter of an hour; normalised, each of these repeats within a third
// of its bound (README.md, "Noise floor").
var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "queries_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "latency_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "latency_p95_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "cpu_ms_per_query", unit: "ms", better: "lower", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.20},
}

const (
	onLookup   = "lookup"
	onHurr     = "hurricane"
	onBox      = "box-join"
	onPoly     = "polygon-minus"
	onChurn    = "snapshot-churn"
	p50        = "latency_p50_ms on "
	p95        = "latency_p95_ms on "
	qps        = "queries_per_s on "
	cpuPerQ    = "cpu_ms_per_query on "
	setupEvery = "setup_s on every workload"
)

// perLayer are the traced pass's numbers; layer = module under internal/.
var perLayer = []metric{
	{name: "server.overhead_p50_ms", unit: "ms", better: "lower", moves: p50 + onLookup},
	{name: "server.response_kb_per_query", unit: "KB", better: "lower", moves: p50 + onBox},
	{name: "server.session_open_ms", unit: "ms", better: "lower", moves: p50 + onChurn},

	{name: "query.parse_us", unit: "us", better: "lower", moves: p50 + onLookup},
	{name: "calculus.parse_us", unit: "us", better: "lower", moves: p50 + onHurr},

	{name: "cqa.eval_ms", unit: "ms", better: "lower", moves: qps + "every query workload"},
	{name: "cqa.select_ms", unit: "ms", better: "lower", moves: qps + onLookup},
	{name: "cqa.project_ms", unit: "ms", better: "lower", moves: qps + onHurr},
	{name: "cqa.join_ms", unit: "ms", better: "lower", moves: qps + onBox + ", " + onHurr},
	{name: "cqa.difference_ms", unit: "ms", better: "lower", moves: qps + onPoly},
	{name: "cqa.plan_ms", unit: "ms", better: "lower", moves: qps + onBox},
	{name: "cqa.pairs_per_query", unit: "count", better: "lower", moves: qps + onHurr},
	{name: "cqa.pairs_pruned_share", unit: "ratio", better: "higher", moves: qps + onHurr},
	{name: "cqa.est_over_act_pairs", unit: "ratio", better: "lower", moves: qps + onBox},
	{name: "cqa.tuples_out_per_query", unit: "count", better: "lower", moves: p50 + onBox},
	{name: "cqa.strategy_dense_share", unit: "ratio", better: "higher", moves: qps + onBox},
	{name: "cqa.strategy_sweep_share", unit: "ratio", better: "higher", moves: qps + onHurr},
	{name: "cqa.strategy_index_share", unit: "ratio", better: "higher", moves: qps + onHurr},
	{name: "cqa.strategy_vector_share", unit: "ratio", better: "higher", moves: qps + onBox + ", " + onPoly},

	{name: "exec.parallel_op_share", unit: "ratio", better: "higher", moves: p50 + onBox},
	{name: "exec.par_speedup", unit: "ratio", better: "higher", moves: p50 + onBox},

	{name: "constraint.sat_checks_per_query", unit: "count", better: "lower", moves: cpuPerQ + onHurr},
	{name: "constraint.fm_decisions_per_query", unit: "count", better: "lower", moves: cpuPerQ + onHurr},
	{name: "constraint.satcache_hit_share", unit: "ratio", better: "higher", moves: cpuPerQ + onHurr},
	{name: "constraint.satcache_evictions_per_query", unit: "count", better: "lower", moves: cpuPerQ + onBox},
	{name: "constraint.merge_canon_us", unit: "us", better: "lower", moves: cpuPerQ + onBox},
	{name: "constraint.merge_canon_allocs", unit: "count", better: "lower", moves: cpuPerQ + onBox},
	{name: "constraint.sat_us", unit: "us", better: "lower", moves: cpuPerQ + onHurr},
	{name: "constraint.satcache_hit_us", unit: "us", better: "lower", moves: cpuPerQ + onHurr},
	{name: "constraint.project_us", unit: "us", better: "lower", moves: cpuPerQ + onHurr},
	{name: "constraint.subtract_us", unit: "us", better: "lower", moves: cpuPerQ + onPoly},
	{name: "constraint.subtract_pieces", unit: "count", better: "lower", moves: cpuPerQ + onPoly},
	{name: "constraint.envelope_us", unit: "us", better: "lower", moves: cpuPerQ + onHurr},

	{name: "vector.hits_per_query", unit: "count", better: "higher", moves: cpuPerQ + onBox + ", " + onPoly},
	{name: "vector.fallback_share", unit: "ratio", better: "lower", moves: cpuPerQ + onPoly},
	{name: "vector.float_reject_share", unit: "ratio", better: "higher", moves: cpuPerQ + onPoly},
	{name: "vector.formof_us", unit: "us", better: "lower", moves: cpuPerQ + onBox},
	{name: "vector.pairsat_us", unit: "us", better: "lower", moves: cpuPerQ + onBox + ", " + onPoly},

	{name: "relation.normalize_ms", unit: "ms", better: "lower", moves: p50 + onBox},
	{name: "relation.render_ms", unit: "ms", better: "lower", moves: p50 + onBox},
	{name: "relation.partition_us", unit: "us", better: "lower", moves: p50 + onHurr},

	{name: "db.load_ms", unit: "ms", better: "lower", moves: setupEvery},
	{name: "db.file_kb", unit: "KB", better: "lower", moves: setupEvery},

	{name: "snapshot.commit_ms", unit: "ms", better: "lower", moves: p50 + onChurn},
	{name: "snapshot.fork_ms", unit: "ms", better: "lower", moves: p50 + onChurn},
	{name: "snapshot.materialize_ms", unit: "ms", better: "lower", moves: p50 + onChurn},
	{name: "snapshot.release_ms", unit: "ms", better: "lower", moves: p50 + onChurn},
	{name: "snapshot.pages_written_per_commit", unit: "count", better: "lower", moves: p50 + onChurn},
	{name: "snapshot.shared_page_share", unit: "ratio", better: "higher", moves: p50 + onChurn},
	{name: "snapshot.wal_bytes_per_commit", unit: "B", better: "lower", moves: p50 + onChurn},
	{name: "snapshot.fsyncs_per_commit", unit: "count", better: "lower", moves: p50 + onChurn},
	{name: "snapshot.stored_bytes_per_user_byte", unit: "ratio", better: "lower", moves: p50 + onChurn},

	{name: "process.allocs_per_query", unit: "count", better: "lower", moves: cpuPerQ + onBox + ", " + onPoly},
	{name: "process.alloc_kb_per_query", unit: "KB", better: "lower", moves: cpuPerQ + onBox + ", " + onPoly},
	{name: "process.gc_cycles_per_s", unit: "1/s", better: "lower", moves: p95 + onBox + ", " + onPoly},
	{name: "process.gc_pause_ms_per_s", unit: "ms/s", better: "lower", moves: p95 + onBox + ", " + onPoly},

	{name: "machine.slowdown", unit: "ratio", better: "lower", moves: "none: how much slower than nominal the sandbox ran during the window; every time above is already divided by it"},

	{name: "trace.overhead_share", unit: "ratio", better: "lower", moves: "none: the cost of tracing itself"},
	{name: "trace.unattributed_share", unit: "ratio", better: "lower", moves: "none: request wall no span covers"},
}

// runSeconds is the measured window the contract asks the driver for.
const runSeconds = 15

// contractJSON renders BENCHMARK.json from the catalogue.
func contractJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.name, m.unit, m.better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	return append(b, '\n'), err
}

// --- small statistics ---

// quantile returns the q-quantile (0..1) of vs by the nearest-rank
// method; vs need not be sorted. It is 0 for an empty sample.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median is the middle value of vs, or the mean of the two middle values.
func median(vs []float64) float64 {
	n := len(vs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

func sum(vs []float64) float64 {
	var t float64
	for _, v := range vs {
		t += v
	}
	return t
}

func mean(vs []float64) float64 { return ratio(sum(vs), float64(len(vs))) }

// ratio is a/b, or 0 when b is 0: a layer that did no work reports 0,
// never NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
