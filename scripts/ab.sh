#!/usr/bin/env bash
# A/B comparison of two revisions on the repository benchmark:
#
#   scripts/ab.sh REV_A REV_B --workload W [more benchmark/run.sh args]
#
# Each revision is exported (git archive) into a temporary directory of its
# own outside the checkout, and `bash benchmark/run.sh ARGS` runs there
# AB_RUNS times per side (default 10), as pairs: in pair i, A goes first
# when i is even and B when it is odd. Each run's last output line is the
# benchmark's result object; a run without one, or that exits non-zero,
# counts as failed and is printed as such. No run is dropped.
#
# It prints, per metric of the result object: the median and the quartiles
# of each side (Python's statistics.quantiles(n=4), the spread statistic
# the benchmark reports), the change of B's median against A's, and in how
# many of the complete pairs B was better (the direction is BENCHMARK.json's
# `better`), then every run with the 1-minute load average read just before
# it. The exports are removed at the end; .bench_build in each keeps the
# builds only while the script runs.
set -euo pipefail
if [ $# -lt 2 ]; then
	echo "usage: scripts/ab.sh REV_A REV_B --workload W [benchmark/run.sh args]" >&2
	exit 2
fi
rev_a=$1 rev_b=$2
shift 2
runs=${AB_RUNS:-10}
repo=$(git rev-parse --show-toplevel)
work=$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")
trap 'rm -rf "$work"' EXIT
for side in a b; do
	rev=$rev_a
	[ "$side" = b ] && rev=$rev_b
	mkdir "$work/$side"
	git -C "$repo" archive "$(git -C "$repo" rev-parse --verify "$rev^{commit}")" | tar -x -C "$work/$side"
done
echo "# A=$rev_a B=$rev_b runs=$runs args: $*" >&2
for ((i = 0; i < runs; i++)); do
	order="a b"
	((i % 2)) && order="b a"
	for side in $order; do
		load=$(cut -d' ' -f1 /proc/loadavg)
		line='{"failed_run": true}'
		if out=$(cd "$work/$side" && bash benchmark/run.sh "$@" 2>"$work/err"); then
			last=$(printf '%s\n' "$out" | tail -n 1)
			[[ $last == "{"* ]] && line=$last
		fi
		printf '%s\t%s\t%s\t%s\n' "$i" "$side" "$load" "$line" >>"$work/runs.tsv"
		echo "# pair $i side $side load $load $([[ $line == *failed_run* ]] && echo FAILED)" >&2
	done
done
python3 - "$work/runs.tsv" "$work/b/BENCHMARK.json" "$rev_a" "$rev_b" <<'EOF'
import json, statistics, sys

runs_path, contract_path, rev_a, rev_b = sys.argv[1:]
contract = json.load(open(contract_path))
better = {m["name"]: m["better"] for m in contract["end_to_end"] + contract.get("per_layer", [])}
runs = []
for row in open(runs_path):
    i, side, load, line = row.rstrip("\n").split("\t", 3)
    res = json.loads(line)
    ok = not res.get("failed_run") and res.get("correct", False)
    vals = {k: v["value"] for k, v in res.get("metrics", {}).items()} if ok else {}
    runs.append({"pair": int(i), "side": side, "load": load, "ok": ok, "vals": vals})

def quart(vs):
    if len(vs) < 2:
        return (vs[0], vs[0]) if vs else (float("nan"), float("nan"))
    q = statistics.quantiles(vs, n=4)
    return q[0], q[2]

names = sorted({k for r in runs for k in r["vals"]}, key=lambda n: (n not in better or "." in n, n))
pairs = sorted({r["pair"] for r in runs})
print(f"A = {rev_a}, B = {rev_b}; {len(pairs)} pairs, failed runs: "
      f"A {sum(not r['ok'] for r in runs if r['side'] == 'a')}, B {sum(not r['ok'] for r in runs if r['side'] == 'b')}")
print(f"{'metric':<42} {'A median':>11} {'A q1–q3':>21} {'B median':>11} {'B q1–q3':>21} {'change':>8} {'B wins':>7}")
for n in names:
    side = {s: [r["vals"][n] for r in runs if r["side"] == s and n in r["vals"]] for s in "ab"}
    if not side["a"] or not side["b"]:
        continue
    ma, mb = statistics.median(side["a"]), statistics.median(side["b"])
    qa, qb = quart(side["a"]), quart(side["b"])
    change = (mb - ma) / ma * 100 if ma else float("nan")
    wins, complete = 0, 0
    for p in pairs:
        va = [r["vals"][n] for r in runs if r["pair"] == p and r["side"] == "a" and n in r["vals"]]
        vb = [r["vals"][n] for r in runs if r["pair"] == p and r["side"] == "b" and n in r["vals"]]
        if va and vb:
            complete += 1
            wins += (vb[0] < va[0]) if better.get(n, "lower") == "lower" else (vb[0] > va[0])
    print(f"{n:<42} {ma:>11.4g} {qa[0]:>10.4g}–{qa[1]:<10.4g} {mb:>11.4g} {qb[0]:>10.4g}–{qb[1]:<10.4g} {change:>+7.1f}% {wins:>3}/{complete:<3}")
print()
print("runs (pair, side, load average before the run):")
for r in runs:
    print(f"  {r['pair']:>2} {r['side'].upper()} load {r['load']:>5}  {'ok' if r['ok'] else 'FAILED'}")
EOF
