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

# Reachability ledger: every non-test function under internal/ is linked by
# a shipped binary or the facade, or scripts/reach.allow says why it stays.
echo '>> reachability ledger'
scripts/reach.sh

# One decision seam: a query-time satisfiability decision goes through an
# exec.OpRecorder or an exec.Context (sat-cache, counters), never straight
# to the eliminator, in the packages that evaluate queries.
echo '>> no raw IsSatisfiable() on the query path'
if grep -nE '\.IsSatisfiable\(\)' internal/cqa/*.go internal/exec/*.go internal/server/*.go \
    internal/db/*.go internal/calculus/*.go internal/query/*.go | grep -v '_test\.go:'; then
    echo 'a query-path package decides without its recorder or context (see above)'
    exit 1
fi

# The kernel declares no metrics: the constraint engine and the snapshot
# store keep Stats(), and the daemon (server.installMetrics) declares the
# families that read them, so neither package imports the observability
# layer.
echo '>> the kernel imports no internal/obs'
if go list -f '{{.ImportPath}}: {{join .Imports " "}}' ./internal/constraint ./internal/snapshot | grep -E ' cdb/internal/obs( |$)'; then
    echo 'a kernel package imports cdb/internal/obs (see above)'
    exit 1
fi

# Entry size: a CHANGES.md entry from PR 49 on is one line of at most
# 4 000 bytes; the pairs behind a claim go in a table, not in prose.
echo '>> CHANGES.md entries from PR 49 on are at most 4000 bytes'
if ! LC_ALL=C awk 'match($0, /^- PR [0-9]+/) {
        n = substr($0, 6, RLENGTH - 5) + 0
        if (n >= 49 && length($0) > 4000) { printf "CHANGES.md:%d: PR %d entry is %d bytes\n", NR, n, length($0); bad = 1 }
    } END { exit bad }' CHANGES.md; then
    echo 'a CHANGES.md entry is over 4000 bytes (see above)'
    exit 1
fi

# The docs a builder reads before any code; the next three gates check the
# names and paths they give and their size.
DOCS="README.md DESIGN.md EXPERIMENTS.md $(git ls-files docs .claude/skills | grep '\.md$')"

# Doc names that exist: every backticked Test*, Benchmark* or Fuzz* name in
# the docs names a function of some _test.go file; a trailing * matches as
# a prefix.
echo '>> test names in the docs exist'
defined=$(git ls-files --cached --others --exclude-standard '*_test.go' \
    | xargs sed -n 's/^func \(\(Test\|Benchmark\|Fuzz\)[A-Za-z0-9_]*\)(.*/\1/p' | sort -u)
missing=$(grep -ho '`[^`]*`' $DOCS \
    | grep -oE '\b(Test|Benchmark|Fuzz)[A-Za-z0-9_]+\*?' | sort -u \
    | while read -r n; do
        case $n in
        *\*) printf '%s\n' "$defined" | grep -q "^${n%\*}" || echo "$n" ;;
        *) printf '%s\n' "$defined" | grep -qx "$n" || echo "$n" ;;
        esac
    done)
if [ -n "$missing" ]; then
    echo "$missing"
    echo 'the docs name the tests above, and no _test.go file declares them'
    exit 1
fi

# Doc paths that exist: every backticked path in the docs that starts
# with internal/, cmd/, scripts/, docs/ or examples/ and names a source,
# script, doc, golden, JSON, ledger or database file is a file of the
# checkout.
echo '>> paths in the docs exist'
missing=$(grep -ho '`[^`]*`' $DOCS | tr -d '`' \
    | grep -E '^(internal|cmd|scripts|docs|examples)/[^ ]*\.(go|sh|md|golden|json|allow|cqa)$' \
    | sort -u | while read -r p; do [ -e "$p" ] || echo "$p"; done)
if [ -n "$missing" ]; then
    echo "$missing"
    echo 'the docs name the paths above, and the checkout has no such file'
    exit 1
fi

# Prose budget: a CHANGES.md entry before PR 49 is one line of at most
# 1 500 bytes, followed by nothing but table lines; and the docs total at
# most 155 000 bytes.
echo '>> prose budget'
if ! LC_ALL=C awk 'match($0, /^- PR [0-9]+/) {
        n = substr($0, 6, RLENGTH - 5) + 0
        if (n < 49 && length($0) > 1500) { printf "CHANGES.md:%d: PR %d entry is %d bytes\n", NR, n, length($0); bad = 1 }
        next
    }
    /^(FOUND|MENDED):/ { n = 0; next }
    n && n < 49 && $0 != "" && $0 !~ /^  \|/ { printf "CHANGES.md:%d: PR %d entry goes on past its line\n", NR, n; bad = 1 }
    END { exit bad }' CHANGES.md; then
    echo 'a CHANGES.md entry before PR 49 is not one line of at most 1500 bytes (see above)'
    exit 1
fi
total=$(cat $DOCS | wc -c)
if [ "$total" -gt 155000 ]; then
    echo "the docs ($DOCS) hold $total bytes, over 155000"
    exit 1
fi

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
# read from its own operator rows), and the interval-sweep enumeration with
# its size rule and the test hook that made a decider decline (one
# enumeration: the bucket-matched dense loop; the plan modes are the decider
# sets), and the copies of process-level facts beside /metrics (the stats
# reply's cache block, the registry's expvar twin, the kernel's own metric
# declarations, the always-zero float_rej counter row), and the second entry
# point of each operation (the context twin of every CQA operator, of a
# database's run, load and file load, and the save span; the interpreter's
# optimised twin; the kernel's nil-SatFunc normalise, its entailment and
# decision twins, its one-subtrahend subtraction and the schema's one-pair
# rename; the snapshot store's context-free materialise) with the second
# statement loop (query.Program.Exec is the one loop), and the second
# catalog (a schema-only environment and the method that copied one out of
# cqa.Env: plans read schemas through Env.Lookup), and the race-build
# allowance and the byte counter of the per-test allocation ceilings (one
# allocation ledger: testdata/allocs.golden). Nothing outside the history
# files and the frozen benchmark/ may name them again.
echo '>> no second bench harness'
if ls BENCH_*.json >/dev/null 2>&1; then
    echo 'a BENCH_*.json sits at the root; measurements belong to benchmark/'
    exit 1
fi
if git grep -nE 'BENCH_[a-z]+\.json|bench[d]iff|bench-(all|canon|prune|plan|vector|snapshot)|-expt (cqa|canon|prune|plan|vector|snapshot)|Valid[P]lanMode|cdb_planner_[q]error|QError[B]uckets|DefaultQError[T]hreshold|SubtractAll[W]ith|Complement[I]nto|sat[T]otals|foldRetired[L]ocked|HitRate[S]ince|sat_cache_[e]ntries|cache[S]tats|sweep[B]ucket|sweep[C]\b|sweep[P]airs|sweep[I]tems|sweep[C]olumn|force[D]ecline|strategy=[s]weep|snap[D]Bs|hook[M]aterialized|snapshot[D]B\(|endpoint[K]ey|deduceSpatial[S]hell|Publish[E]xpvar|cache[I]nfo|Register[M]etrics|Install[M]etrics|"float_[r]ej"|\b(Select|Project|Join|Intersect|Union|Rename|Difference|Save|Load|LoadFile)[C]tx\b|(Database|db|d)\.Run[C]tx\b|RunOptimize[d]\b|Run[P]rogram|db\.sav[e]\b|\.Normaliz[e]\(\)|Entails[W]ith|Satisfiable[W]ith|\bSubtrac[t]\(|constraint\.Subtrac[t]\b|Schema\.Renam[e]\b|\bMaterializ[e]\(|Schema[E]nv|\.Schema[s]\(\)|race[A]llocs|bytesPer[R]un' \
    -- . ':!CHANGES.md' ':!ROADMAP.md' ':!ISSUE.md' ':!benchmark'; then
    echo 'a retired measurement file, tool, target, experiment or name is named (see above)'
    exit 1
fi

# One page format: a snapshot page holds the binary records of
# internal/snapshot/codec.go. The text format of internal/db is import,
# export and goldens; the store must not grow a second way to read or
# write a page through it.
echo '>> no text-format pages in the snapshot store'
if grep -nE 'db\.(Load|EncodeRelation)\(' internal/snapshot/*.go | grep -v '_test\.go:'; then
    echo 'internal/snapshot reads or writes the db text format (see above)'
    exit 1
fi

# Ledger stability: the allocation ledger's four tests read five times in
# one process, so that a figure that flakes on a shared host fails this
# gate, not a later change (the race run below compares only its set of
# lines).
LEDGER='AllocLedger|BoxJoinWarmBytes|DifferencePolygonMinusAllocs|NormalizeAllocs'
echo ">> go test -count=5 -run '$LEDGER' ."
go test -count=5 -run "$LEDGER" .

echo '>> go test -race ./...'
go test -race ./...

# A focused second pass over the canonical-kernel, observability and
# snapshot packages with a higher -count: the sat-cache, the *Ctx
# operators, the span/metrics plumbing and the snapshot store's
# commit/fork/release paths are where fresh races would live, and
# repetition shakes out scheduling-dependent ones cheaply.
echo '>> go test -race -count=2 ./internal/constraint ./internal/exec ./internal/cqa ./internal/relation ./internal/obs ./internal/server ./internal/snapshot ./internal/vector'
go test -race -count=2 ./internal/constraint ./internal/exec ./internal/cqa ./internal/relation ./internal/obs ./internal/server ./internal/snapshot ./internal/vector

# The render-once, cold-decision, FM history-bound ablation, normalisation,
# vector-difference, pairing-mode,
# filter-stage, pair-lookup, warm and cold Query 3 (and the same request as a rule, and through the
# server handler), warm box-join and its one box pair merge,
# box-join reply, warm select and snapshot benchmarks must keep compiling and running (their requests'
# allocations are testdata/allocs.golden's lines and their decisions
# testdata/counters.golden's, both plain tests run above; PairingModes also
# fails here when auto eliminates or clips more than dense eliminates, or
# anything at all on boxes).
echo '>> result-tail, cold-decision, FM ablation, vector-difference, pairing-mode, filter-stage, pair-lookup, box-join, box-merge, reply, select and snapshot benchmarks, one iteration'
go test -run '^$' -bench 'Sorted|CanonMerge|RatString|ColdDecision|AblationFMHistoryBound|NormalizePolygonMinus|NormalizeBoxJoin|DifferencePolygonMinus|ClipRing|PairingModes|PairCandidates|HurricaneQuery3Warm|HurricaneQuery3Cold|HurricaneServer|HurricaneRuleWarm|BoxJoinWarm|BoxMerge|QueryReply|SelectWarm|JoinPairLookup|SnapshotMaterialize|SnapshotRecommit' -benchtime 1x ./...
# The pair-lookup miss leg asserts that no decision hits its cache, which
# only a run of more than one iteration can break.
go test -run '^$' -bench 'JoinPairLookup/miss' -benchtime 3x .

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
TRACE_JSON=$(mktemp "$T/cdb_trace.XXXXXX")
go run ./cmd/cqacdb -demo hurricane -explain -stats -trace-json "$TRACE_JSON" \
    -e 'R = select landId = A from Landownership' >/dev/null
grep -q '"name": "query"' "$TRACE_JSON" \
    || { echo 'cqacdb -trace-json wrote no query span'; exit 1; }
rm -f "$TRACE_JSON"
go run ./cmd/cdbbench -expt diff -n 25 -seed 7 -par 2 >/dev/null

# start_daemon <outfile> [flags…]: boot cqacdbd over the demo database on
# a free port, wait for its listen line, and set SRV_PID and BASE.
start_daemon() {
    out=$1
    shift
    : > "$out" # exists before the first poll below, however late the daemon starts
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
# history with a terminal outcome, listed under its statement.
curl -s "$BASE/v1/queries/recent" | grep -q '"outcome": "ok"' \
    || { echo 'queries/recent missing the finished query'; kill "$SRV_PID"; exit 1; }
curl -s "$BASE/v1/queries/recent?limit=1" | grep -q '"statement": "R0 = join Landownership and Land"' \
    || { echo 'queries/recent does not list the query just run'; kill "$SRV_PID"; exit 1; }
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
# Zero disagreements allowed. The spatial run through the vector path is
# a row of TestDiffSpatialVector (internal/oracle), run above.
echo '>> oracle smoke'
go run ./cmd/cdbbench -expt diff -n 200 -seed 3 -par 2 >/dev/null
echo 'OK'
