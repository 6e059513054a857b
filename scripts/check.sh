#!/bin/sh
# Full local gate: vet plus the race-enabled test suite. The race run is
# what protects the parallel execution layer (internal/exec and the *Ctx
# operators in internal/cqa) and the sharded sat-cache
# (internal/constraint SatCache) — run it before sending any change that
# touches them.
set -eu
cd "$(dirname "$0")/.."
T=${TMPDIR:-/tmp} # where the smoke stages put binaries and logs

echo '>> go vet ./...'
go vet ./...

# Every Go file of the checkout (tracked, or new and not ignored: the
# benchmark's .bench_build stays out) is as gofmt writes it.
echo '>> gofmt'
unformatted=$(gofmt -l $(git ls-files --cached --others --exclude-standard '*.go'))
if [ -n "$unformatted" ]; then
    echo "$unformatted"
    echo 'gofmt would rewrite the files above: run gofmt -w on them'
    exit 1
fi

# Render-once guard: outside tests, nothing under internal/ may order by
# rendering inside the comparator (`a.String() < b.String()` renders twice
# per comparison, n log n times per sort). Compute the key once per element
# and compare keys — see relation.Rows and constraint.Conjunction.Canon.
echo '>> no rendering comparators under internal/'
if grep -rnE '\.String\(\) <' internal --include='*.go' | grep -v '_test\.go:'; then
    echo 'a comparator renders per comparison (see above)'
    exit 1
fi

# One measuring instrument: benchmark/ (BENCHMARK.json) is where numbers
# come from. The single-shot measurement files, the tool that diffed them,
# their Makefile targets and the cdbbench experiments that wrote them are
# gone; so are the plan-mode validator and the planner q-error histogram,
# threshold and buckets, the second difference staircase (one staircase:
# constraint.SubtractAllScoped), and the per-session sat-caches with the
# server code that summed them (one cache per server; a query's hit rate is
# read from its own operator rows). Nothing outside the history files and
# the frozen benchmark/ may name them again.
echo '>> no second bench harness'
if ls BENCH_*.json >/dev/null 2>&1; then
    echo 'a BENCH_*.json sits at the root; measurements belong to benchmark/'
    exit 1
fi
if git grep -nE 'BENCH_[a-z]+\.json|bench[d]iff|bench-(all|canon|prune|plan|vector|snapshot)|-expt (cqa|canon|prune|plan|vector|snapshot)|Valid[P]lanMode|cdb_planner_[q]error|QError[B]uckets|DefaultQError[T]hreshold|SubtractAll[W]ith|Complement[I]nto|sat[T]otals|foldRetired[L]ocked|HitRate[S]ince|sat_cache_[e]ntries|cache[S]tats' \
    -- . ':!CHANGES.md' ':!ROADMAP.md' ':!ISSUE.md' ':!benchmark'; then
    echo 'a retired measurement file, tool, target, experiment or name is named (see above)'
    exit 1
fi

# One page format: a snapshot page holds the binary records of
# internal/snapshot/codec.go. The text format of internal/db is import,
# export and goldens; the store must not grow a second way to read or
# write a page through it.
echo '>> no text-format pages in the snapshot store'
if grep -nE 'db\.(Load|LoadCtx|EncodeRelation)\(' internal/snapshot/*.go | grep -v '_test\.go:'; then
    echo 'internal/snapshot reads or writes the db text format (see above)'
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

# The render-once, normalisation, vector-difference, pairing-mode,
# pair-lookup, warm Query 3 (and the same request as a rule, and through the
# server handler), warm box-join and its one box pair merge,
# box-join reply, warm select and snapshot benchmarks must keep compiling and running (their allocation
# and decision ceilings are plain tests, already run above; PairingModes also
# fails here when auto eliminates or clips more than a forced mode, or
# anything at all on boxes).
echo '>> result-tail, vector-difference, pairing-mode, pair-lookup, box-join, box-merge, reply, select and snapshot benchmarks, one iteration'
go test -run '^$' -bench 'Sorted|CanonMerge|RatString|NormalizePolygonMinus|NormalizeBoxJoin|DifferencePolygonMinus|ClipRing|PairingModes|HurricaneQuery3Warm|HurricaneServer|HurricaneRuleWarm|BoxJoinWarm|BoxMerge|QueryReply|SelectWarm|JoinPairLookup|SnapshotMaterialize|SnapshotRecommit' -benchtime 1x ./...

# Corpus replay: the committed fuzz corpora under testdata/fuzz/ run as
# ordinary seed inputs here — every input that ever broke the parsers,
# the canonical kernel, the rational kernel, the ring splitter's edge
# labels, the snapshot WAL, the page codec or the reply encoder stays
# fixed without a long -fuzz session.
echo '>> fuzz corpus replay'
go test -run Fuzz -count=1 ./internal/rational ./internal/geometry ./internal/constraint ./internal/query ./internal/calculus ./internal/snapshot ./internal/vector ./internal/server ./internal/exec

# CLI smoke: both binaries must build and execute an end-to-end run —
# cqacdb with the observability flags on, cdbbench on a short differential
# run against the semantic oracle.
echo '>> cli smoke'
go build -o /dev/null ./cmd/cqacdb ./cmd/cdbbench
go run ./cmd/cqacdb -demo hurricane -explain -stats \
    -e 'R = select landId = A from Landownership' >/dev/null
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
# Sessions fold their operator records into the daemon's registry.
curl -s "$BASE/metrics" | grep -q '^cdb_op_out_total{op="join"} ' \
    || { echo '/metrics missing the per-operator families'; kill "$SRV_PID"; exit 1; }
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

# Oracle smoke: 200 random cases against the naive reference evaluator
# guard the planner end to end (cost rewrites plus strategy switching) —
# one in eight a random conjunctive rule through the calculus front end.
# Zero disagreements allowed. The spatial run through the forced vector
# path is a row of TestDiffSpatialVector (internal/oracle), run above.
echo '>> oracle smoke'
go run ./cmd/cdbbench -expt diff -n 200 -seed 3 -par 2 >/dev/null
echo 'OK'
