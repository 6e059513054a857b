GO ?= go

.PHONY: build test check reach bench bench-parallel obs-demo fuzz diff serve

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The pre-submit gate (docs/TESTING.md "What runs where").
check:
	scripts/check.sh

# The reachability ledger alone (scripts/reach.sh; check runs it too): every
# non-test function under internal/ is linked or listed in scripts/reach.allow.
reach:
	scripts/reach.sh

bench:
	$(GO) test -bench . -benchtime 1x .

bench-parallel:
	$(GO) test -bench Parallel -benchtime 5x .

# The multi-session HTTP server on the hurricane demo database (:8344).
# See docs/SERVER.md for the API; SIGINT/SIGTERM drains and exits 0.
serve:
	$(GO) run ./cmd/cqacdbd -demo hurricane

# EXPLAIN ANALYZE demo: the hurricane case study with the span tree and
# the per-operator stats table. /metrics and /debug/pprof/ are served by
# the daemon (make serve).
obs-demo:
	$(GO) run ./cmd/cqacdb -demo hurricane -par 4 -explain -stats \
		-e "$$(printf 'R0 = join Landownership and Land\nR1 = select t >= 4, t <= 9 from R0\nR2 = project R1 on name')"

# Native fuzzing: 30s per target. go's -fuzz takes one package at a time,
# so the sixteen targets run sequentially (~8min total). Inputs that fail are
# auto-saved under the package's testdata/fuzz/<Target>/ — commit them;
# they replay as regression tests in every ordinary `go test` run.
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/rational -run '^$$' -fuzz '^FuzzRatOps$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/geometry -run '^$$' -fuzz '^FuzzSplit$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/constraint -run '^$$' -fuzz '^FuzzCanon$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/constraint -run '^$$' -fuzz '^FuzzFourierMotzkin$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/constraint -run '^$$' -fuzz '^FuzzSimplify$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/constraint -run '^$$' -fuzz '^FuzzBoxMerge$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/constraint -run '^$$' -fuzz '^FuzzEnvelope$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/constraint -run '^$$' -fuzz '^FuzzStaircase$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/query -run '^$$' -fuzz '^FuzzQueryParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/calculus -run '^$$' -fuzz '^FuzzCalculusParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/calculus -run '^$$' -fuzz '^FuzzComparisonFaces$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/snapshot -run '^$$' -fuzz '^FuzzManifest$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/snapshot -run '^$$' -fuzz '^FuzzWALReplay$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/snapshot -run '^$$' -fuzz '^FuzzPageCodec$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/vector -run '^$$' -fuzz '^FuzzVectorRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/exec -run '^$$' -fuzz '^FuzzMap$$' -fuzztime $(FUZZTIME)

# Differential check against the semantic oracle: 500 seeded random cases
# across all seven CQA operators and random calculus rules, engine vs naive
# reference evaluator.
diff:
	$(GO) run ./cmd/cdbbench -expt diff -n 500 -seed 1 -par 4
