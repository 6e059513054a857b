#!/bin/sh
# Full local gate: vet plus the race-enabled test suite. The race run is
# what protects the parallel execution layer (internal/exec and the *Ctx
# operators in internal/cqa) and the sharded sat-cache
# (internal/constraint SatCache) — run it before sending any change that
# touches them.
set -eu
cd "$(dirname "$0")/.."
T=${TMPDIR:-/tmp} # where the smoke stages put binaries, logs and JSON

echo '>> go vet ./...'
go vet ./...

# Render-once guard: outside tests, nothing under internal/ may order by
# rendering inside the comparator (`a.String() < b.String()` renders twice
# per comparison, n log n times per sort). Compute the key once per element
# and compare keys — see relation.Rows and constraint.Conjunction.Canon.
echo '>> no rendering comparators under internal/'
if grep -rnE '\.String\(\) <' internal --include='*.go' | grep -v '_test\.go:'; then
    echo 'a comparator renders per comparison (see above)'
    exit 1
fi
echo '>> go test -race ./...'
go test -race ./...

# A focused second pass over the canonical-kernel, observability and
# snapshot packages with a higher -count: the sat-cache, the *Ctx
# operators, the span/metrics plumbing and the snapshot store's
# commit/fork/release paths are where fresh races would live, and
# repetition shakes out scheduling-dependent ones cheaply.
echo '>> go test -race -count=2 ./internal/constraint ./internal/exec ./internal/cqa ./internal/relation ./internal/obs ./internal/server ./internal/snapshot ./internal/vector'
go test -race -count=2 ./internal/constraint ./internal/exec ./internal/cqa ./internal/relation ./internal/obs ./internal/server ./internal/snapshot ./internal/vector

# The render-once and normalisation benchmarks must keep compiling and
# running (their allocation and decision ceilings are plain tests, already
# run above).
echo '>> result-tail benchmarks, one iteration'
go test -run '^$' -bench 'Sorted|CanonMerge|RatString|NormalizePolygonMinus|NormalizeBoxJoin' -benchtime 1x ./...

# Corpus replay: the committed fuzz corpora under testdata/fuzz/ run as
# ordinary seed inputs here — every input that ever broke the parsers,
# the canonical kernel or the snapshot WAL stays fixed without a long
# -fuzz session.
echo '>> fuzz corpus replay'
go test -run Fuzz -count=1 ./internal/constraint ./internal/query ./internal/calculus ./internal/snapshot ./internal/vector

# CLI smoke: both binaries must build and execute an end-to-end run —
# cqacdb with the observability flags on, cdbbench on the cqa experiment
# and on a short differential run against the semantic oracle.
echo '>> cli smoke'
go build -o /dev/null ./cmd/cqacdb ./cmd/cdbbench
go run ./cmd/cqacdb -demo hurricane -explain -stats \
    -e 'R = select landId = A from Landownership' >/dev/null
go run ./cmd/cdbbench -expt cqa -par 2 -cqasize 8 >/dev/null
go run ./cmd/cdbbench -expt diff -n 25 -seed 7 -par 2 >/dev/null

# start_daemon <outfile> [flags…]: boot cqacdbd over the demo database on
# a free port, wait for its listen line, and set SRV_PID and BASE.
start_daemon() {
    out=$1
    shift
    "$T/cdb_cqacdbd" -demo hurricane -addr 127.0.0.1:0 -quiet "$@" > "$out" 2>&1 &
    SRV_PID=$!
    for _ in $(seq 1 100); do
        BASE=$(sed -n 's#^cqacdbd listening on \(http://.*\)$#\1#p' "$out")
        [ -n "$BASE" ] && return 0
        sleep 0.05
    done
    echo "cqacdbd never printed its listen line (see $out)"
    kill -9 "$SRV_PID" 2>/dev/null
    exit 1
}

# Server smoke: boot the real cqacdbd on a free port, open a session, run
# the case-study query, scrape /metrics, then SIGTERM it and require a
# clean drain (exit 0 + the "bye" line).
echo '>> server smoke'
go build -o "$T/cdb_cqacdbd" ./cmd/cqacdbd
start_daemon "$T/cdb_cqacdbd.out"
SID=$(curl -s -X POST "$BASE/v1/sessions" -d '{"par": 2}' \
      | sed -n 's/.*"id": "\([^"]*\)".*/\1/p')
[ -n "$SID" ] || { echo 'session create failed'; kill "$SRV_PID"; exit 1; }
curl -s "$BASE/v1/query" -d '{
  "session": "'"$SID"'",
  "query": "R0 = join Landownership and Land\nR1 = select t >= 4, t <= 9 from R0\nR2 = project R1 on name"
}' | grep -q '"count": 4' || { echo 'case-study query wrong'; kill "$SRV_PID"; exit 1; }
curl -s "$BASE/metrics" | grep -q '^cqacdbd_queries_total 1$' \
    || { echo '/metrics missing query counter'; kill "$SRV_PID"; exit 1; }
# Flight recorder: the finished query must show up in the bounded
# history with a terminal outcome, and the human view must render.
curl -s "$BASE/v1/queries/recent" | grep -q '"outcome": "ok"' \
    || { echo 'queries/recent missing the finished query'; kill "$SRV_PID"; exit 1; }
curl -s "$BASE/debug/queries" | grep -q 'recent queries' \
    || { echo '/debug/queries not rendering'; kill "$SRV_PID"; exit 1; }
kill -TERM "$SRV_PID"
wait "$SRV_PID" || { echo 'server exited non-zero'; exit 1; }
grep -q 'cqacdbd: bye' "$T/cdb_cqacdbd.out" || { echo 'no graceful drain'; exit 1; }

# Snapshot smoke: the copy-on-write store survives a real kill -9.
# Phase 1 commits a snapshot of the hurricane db and drains cleanly.
# Phase 2 restarts with the crash hook armed (-snapshot-fault wal:1: the
# first WAL append writes a torn prefix and hangs) and kill -9s the
# daemon mid-commit. Phase 3 reopens the same store and requires the
# phase-1 snapshot intact, forkable and queryable through a bound
# session — old state, never a torn mix.
echo '>> snapshot smoke'
SNAPDIR=$(mktemp -d "$T/cdb_snapsmoke.XXXXXX")
trap 'rm -rf "$SNAPDIR"' EXIT
start_daemon "$T/cdb_snap1.out" -snapshot-dir "$SNAPDIR"
SNAP=$(curl -s -X POST "$BASE/v1/dbs/hurricane/snapshots" \
       | sed -n 's/.*"id": "\([^"]*\)".*/\1/p')
[ -n "$SNAP" ] || { echo 'phase 1: snapshot commit failed'; kill "$SRV_PID"; exit 1; }
kill -TERM "$SRV_PID"
wait "$SRV_PID" || { echo 'phase 1: server exited non-zero'; exit 1; }

start_daemon "$T/cdb_snap2.out" -snapshot-dir "$SNAPDIR" -snapshot-fault wal:1
# This commit hits the armed fault: the WAL append writes a torn prefix
# and hangs, holding the daemon mid-commit for the kill below.
curl -s -m 10 -X POST "$BASE/v1/dbs/hurricane/snapshots" >/dev/null 2>&1 &
CURL_PID=$!
sleep 1
kill -9 "$SRV_PID"
wait "$SRV_PID" 2>/dev/null || true
wait "$CURL_PID" 2>/dev/null || true

# A store that does not reopen after the kill -9 fails here.
start_daemon "$T/cdb_snap3.out" -snapshot-dir "$SNAPDIR"
curl -s "$BASE/v1/snapshots" | grep -q "\"$SNAP\"" \
    || { echo "phase 3: snapshot $SNAP lost in the crash"; kill "$SRV_PID"; exit 1; }
FORK=$(curl -s -X POST "$BASE/v1/snapshots/$SNAP/fork" \
       | sed -n 's/.*"id": "\([^"]*\)".*/\1/p')
[ -n "$FORK" ] || { echo 'phase 3: fork failed'; kill "$SRV_PID"; exit 1; }
SID=$(curl -s -X POST "$BASE/v1/sessions" -d '{"snapshot": "'"$FORK"'", "par": 2}' \
      | sed -n 's/.*"id": "\([^"]*\)".*/\1/p')
[ -n "$SID" ] || { echo 'phase 3: snapshot-bound session failed'; kill "$SRV_PID"; exit 1; }
curl -s "$BASE/v1/query" -d '{
  "session": "'"$SID"'",
  "query": "R0 = join Landownership and Land\nR1 = select t >= 4, t <= 9 from R0\nR2 = project R1 on name"
}' | grep -q '"count": 4' || { echo 'phase 3: query on recovered fork wrong'; kill "$SRV_PID"; exit 1; }
kill -TERM "$SRV_PID"
wait "$SRV_PID" || { echo 'phase 3: server exited non-zero'; exit 1; }
# The committed snapshot measurement file must stay diffable against a
# fresh (small) run, same shape guard as the prune/plan files below.
go run ./cmd/cdbbench -expt snapshot -cqasize 8 -rounds 1 \
    -json "$T/cdb_snap_smoke.json" >/dev/null
scripts/benchdiff.sh "$T/cdb_snap_smoke.json" "$T/cdb_snap_smoke.json" >/dev/null
scripts/benchdiff.sh BENCH_snapshot.json "$T/cdb_snap_smoke.json" 1000000 >/dev/null

# Prune smoke: the filter-and-refine experiment checks filtered output is
# byte-identical to the dense loop on every workload shape, then benchdiff
# self-compares the JSON (validates the regression tool without wall-time
# flakiness).
echo '>> prune smoke'
go run ./cmd/cdbbench -expt prune -cqasize 16 -rounds 1 \
    -json "$T/cdb_prune_smoke.json" >/dev/null
scripts/benchdiff.sh "$T/cdb_prune_smoke.json" "$T/cdb_prune_smoke.json" >/dev/null
# The committed measurement file must stay diffable against a fresh run
# (guards the JSON shape `make bench-all` writes). The huge threshold
# means only shape breakage fails, never machine-speed variance;
# leaves that exist only at the committed -cqasize report MISSING and
# pass by design.
scripts/benchdiff.sh BENCH_prune.json "$T/cdb_prune_smoke.json" 1000000 >/dev/null

# Plan smoke: the plan experiment forces each candidate enumeration
# (dense, sweep) against the cost model's auto pick and fails inside
# cdbbench unless all outputs are byte-identical; benchdiff
# then self-compares the JSON so the plan measurements stay diffable. The
# 200-case oracle run guards the planner end to end: cost rewrites plus
# strategy switching against the naive reference evaluator, zero
# disagreements allowed.
echo '>> plan smoke'
go run ./cmd/cdbbench -expt plan -cqasize 16 -rounds 1 \
    -json "$T/cdb_plan_smoke.json" >/dev/null
scripts/benchdiff.sh "$T/cdb_plan_smoke.json" "$T/cdb_plan_smoke.json" >/dev/null
scripts/benchdiff.sh BENCH_plan.json "$T/cdb_plan_smoke.json" 1000000 >/dev/null
go run ./cmd/cdbbench -expt diff -n 200 -seed 3 -par 2 >/dev/null

# Vector smoke: the vector experiment forces every spatial decision
# through exact polygon clipping against the pure-FM baseline and fails
# inside cdbbench unless outputs are byte-identical; benchdiff then
# self-compares the JSON and shape-guards the committed BENCH_vector.json.
# The 200-case spatial oracle run drives polygon workloads through the
# forced vector path against the naive reference evaluator — clipper,
# float filter, scoped staircase and FM fallback all end to end, zero
# disagreements allowed.
echo '>> vector smoke'
go run ./cmd/cdbbench -expt vector -cqasize 16 -rounds 1 \
    -json "$T/cdb_vector_smoke.json" >/dev/null
scripts/benchdiff.sh "$T/cdb_vector_smoke.json" "$T/cdb_vector_smoke.json" >/dev/null
scripts/benchdiff.sh BENCH_vector.json "$T/cdb_vector_smoke.json" 1000000 >/dev/null
go run ./cmd/cdbbench -expt diff -n 200 -seed 5 -par 2 -spatial -plan vector >/dev/null
echo 'OK'
