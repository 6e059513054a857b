GO ?= go

.PHONY: build test check bench bench-parallel bench-all bench-canon bench-prune bench-plan bench-vector bench-snapshot obs-demo fuzz diff serve

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The pre-submit gate: vet + race-enabled tests (same as scripts/check.sh).
check:
	$(GO) vet ./...
	$(GO) test -race ./...

bench:
	$(GO) test -bench . -benchtime 1x .

bench-parallel:
	$(GO) test -bench Parallel -benchtime 5x .

# The multi-session HTTP server on the hurricane demo database (:8344).
# See docs/SERVER.md for the API; SIGINT/SIGTERM drains and exits 0.
serve:
	$(GO) run ./cmd/cqacdbd -demo hurricane

# EXPLAIN ANALYZE demo: the hurricane case study with the span tree and
# the per-operator stats table. Add -metrics-addr 127.0.0.1:9190 to poke
# /metrics and /debug/pprof/ while a session runs.
obs-demo:
	$(GO) run ./cmd/cqacdb -demo hurricane -par 4 -explain -stats \
		-e "$$(printf 'R0 = join Landownership and Land\nR1 = select t >= 4, t <= 9 from R0\nR2 = project R1 on name')"

# Regenerates all three committed measurement files in one shot. Run it
# before committing a change that touches the kernel, the pairing engine
# or the planner, and review the wall-time movement against the old
# files with scripts/benchdiff.sh:
#
#   git stash -- BENCH_*.json   # or: git show HEAD:BENCH_plan.json > /tmp/old.json
#   make bench-all
#   scripts/benchdiff.sh /tmp/old.json BENCH_plan.json
bench-all: bench-canon bench-prune bench-plan bench-vector bench-snapshot

# Measures what the canonical-form sat-cache saves: raw Fourier-Motzkin
# decision counts and wall time, cold vs warm, on the cqa operator
# workload. Writes the measurements to BENCH_canon.json.
bench-canon:
	$(GO) run ./cmd/cdbbench -expt canon -cqasize 48 -rounds 5 -json BENCH_canon.json

# Measures the filter-and-refine candidate filter: pairs considered vs
# pruned, refine-stage sat decisions and wall time, filter on vs off, on
# dense / skewed-bucket / spatially-clustered workloads. Fails unless the
# outputs are byte-identical in both modes. Writes BENCH_prune.json;
# compare two runs with scripts/benchdiff.sh OLD.json NEW.json.
bench-prune:
	$(GO) run ./cmd/cdbbench -expt prune -cqasize 96 -rounds 3 -json BENCH_prune.json

# Measures the filter stage's candidate enumerations: each binary operator
# on each workload under forced dense, forced sweep and the cost model's
# auto pick — wall time, sat decisions, est_pairs vs act_pairs.
# Fails unless all strategies produce byte-identical output. Writes
# BENCH_plan.json; compare two runs with scripts/benchdiff.sh.
bench-plan:
	$(GO) run ./cmd/cdbbench -expt plan -cqasize 96 -rounds 3 -json BENCH_plan.json

# Measures the vector-representation fast path: spatial select, intersect
# and difference over polygon workloads, pure Fourier-Motzkin (forced
# dense) vs exact polygon clipping (forced vector) vs the cost-based auto
# pick — wall time, raw FM decision counts, vector hit/fallback counters.
# Fails unless every mode's output is byte-identical. Writes
# BENCH_vector.json; compare two runs with scripts/benchdiff.sh.
bench-vector:
	$(GO) run ./cmd/cdbbench -expt vector -cqasize 48 -rounds 3 -json BENCH_vector.json

# Measures the copy-on-write snapshot store: commit cost, page-sharing
# ratio of a derived commit, O(1) fork vs a full save+load copy, and
# materialize cost. Writes BENCH_snapshot.json; compare two runs with
# scripts/benchdiff.sh.
bench-snapshot:
	$(GO) run ./cmd/cdbbench -expt snapshot -json BENCH_snapshot.json

# Native fuzzing: 30s per target. go's -fuzz takes one package at a time,
# so the seven targets run sequentially (~3.5min total). Inputs that fail are
# auto-saved under the package's testdata/fuzz/<Target>/ — commit them;
# they replay as regression tests in every ordinary `go test` run.
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/constraint -run '^$$' -fuzz '^FuzzCanon$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/constraint -run '^$$' -fuzz '^FuzzFourierMotzkin$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/constraint -run '^$$' -fuzz '^FuzzSimplify$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/query -run '^$$' -fuzz '^FuzzQueryParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/calculus -run '^$$' -fuzz '^FuzzCalculusParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/snapshot -run '^$$' -fuzz '^FuzzManifest$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/snapshot -run '^$$' -fuzz '^FuzzWALReplay$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/vector -run '^$$' -fuzz '^FuzzVectorRoundTrip$$' -fuzztime $(FUZZTIME)

# Differential check against the semantic oracle: 500 seeded random cases
# across all seven CQA operators, engine vs naive reference evaluator.
diff:
	$(GO) run ./cmd/cdbbench -expt diff -n 500 -seed 1 -par 4
