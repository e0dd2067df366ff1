#!/usr/bin/env bash
# Interleaved A/B of perfbench: a base git revision against the working tree.
#
#   scripts/perf_ab.sh <base-rev> [--seeds N]
#
# Exports <base-rev> (git archive) and the working tree (tracked and
# untracked, non-ignored files, uncommitted edits included) into a new
# directory under ${TMPDIR:-/tmp}, and builds each copy into its own
# CARGO_TARGET_DIR there. Then, for seeds 1..N (default 10) and each
# workload of BENCHMARK.json, it runs `python3 perfbench/run.py`
# (unchanged) once on each side at the benchmark's run_seconds, the side
# that goes first alternating from seed to seed. Every run's result line
# is kept in results/<side>-<workload>-<seed>.json of that directory; the
# source copies and build trees are removed on exit.
#
# The summary gives, per workload and gated metric (BENCHMARK.json's
# end-to-end metrics): each side's median and quartiles, the pairs the
# working tree won, the median per-seed head/base ratio, per-seed `fer`
# equality and every run that reported `correct: false`.
#
# One pair of 20-s runs takes ~45 s, so 10 seeds take ~25 minutes after
# the two builds. Exit status: 0, or 1 when any run failed or reported
# `correct: false`, 2 on a usage error.
set -euo pipefail

usage() {
  awk 'NR > 1 && !/^#/ { exit } NR > 1 { sub(/^# ?/, ""); print }' "$0" >&2
  exit 2
}

[[ $# -eq 1 || ($# -eq 3 && $2 == --seeds) ]] || usage
base_rev=$1
seeds=${3:-10}
[[ $seeds =~ ^[1-9][0-9]*$ ]] || usage

root=$(git rev-parse --show-toplevel)
base_sha=$(git -C "$root" rev-parse --verify "$base_rev^{commit}")
read -r seconds workloads < <(python3 -c '
import json, sys
b = json.load(open(sys.argv[1]))
print(b["run_seconds"], " ".join(w["name"] for w in b["workloads"]))
' "$root/BENCHMARK.json")
dir=$(mktemp -d "${TMPDIR:-/tmp}/perf_ab.XXXXXX")
trap 'rm -rf "$dir/base" "$dir/head" "$dir/base-target" "$dir/head-target"' EXIT
mkdir -p "$dir/results" "$dir/base" "$dir/head"

echo "perf_ab: base $base_sha, head = working tree of $root" >&2
echo "perf_ab: seeds 1-$seeds, ${seconds}s runs, results in $dir/results" >&2

git -C "$root" archive "$base_sha" | tar -x -C "$dir/base"
# Files deleted in the working tree are still listed as tracked; tar skips
# them (--ignore-failed-read).
(cd "$root" && git ls-files -z -co --exclude-standard |
  tar --null --no-recursion --ignore-failed-read -T - -cf - 2>/dev/null) |
  tar -x -C "$dir/head"

# One run: side, workload, seed. The result line (the last line run.py
# prints) lands in results/; a run without one leaves an empty file.
run() {
  local side=$1 workload=$2 seed=$3
  local out="$dir/results/$side-$workload-$seed.json"
  echo "perf_ab: $side $workload seed $seed" >&2
  (cd "$dir/$side" &&
    CARGO_TARGET_DIR="$dir/$side-target" python3 perfbench/run.py \
      --workload "$workload" --seed "$seed" --seconds "$seconds" \
      2>"$dir/results/$side-$workload-$seed.log" || true) |
    tail -n 1 | grep '^{' >"$out" || true
}

for ((seed = 1; seed <= seeds; ++seed)); do
  for workload in $workloads; do
    if ((seed % 2 == 1)); then
      run base "$workload" "$seed"
      run head "$workload" "$seed"
    else
      run head "$workload" "$seed"
      run base "$workload" "$seed"
    fi
  done
done

python3 - "$dir" "$root/BENCHMARK.json" "$seeds" <<'EOF'
import json
import os
import statistics
import sys

dirname, bench_path, count = sys.argv[1:4]
seeds = range(1, int(count) + 1)
with open(bench_path) as f:
    bench = json.load(f)
metrics = bench["end_to_end"]
workloads = [w["name"] for w in bench["workloads"]]


def load(side, workload, seed):
    path = os.path.join(dirname, "results",
                        "%s-%s-%d.json" % (side, workload, seed))
    try:
        with open(path) as f:
            return json.loads(f.read())
    except (OSError, ValueError):
        return None


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


bad = []
for workload in workloads:
    runs = {s: (load("base", workload, s), load("head", workload, s))
            for s in seeds}
    for s, pair in runs.items():
        for side, r in zip(("base", "head"), pair):
            if r is None:
                bad.append("%s %s seed %d: no result" % (side, workload, s))
            elif not r.get("correct", False):
                bad.append("%s %s seed %d: correct: false" % (side, workload, s))
    print("== %s" % workload)
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        pairs = [(b["metrics"][name]["value"], h["metrics"][name]["value"], s)
                 for s, (b, h) in runs.items()
                 if b and h and name in b["metrics"] and name in h["metrics"]]
        if not pairs:
            print("  %-20s no complete pairs" % name)
            continue
        base = [p[0] for p in pairs]
        head = [p[1] for p in pairs]
        wins = sum(1 for b, h, _ in pairs if (h > b if higher else h < b))
        ties = sum(1 for b, h, _ in pairs if h == b)
        ratios = [h / b for b, h, _ in pairs if b != 0]
        bq, hq = quartiles(base), quartiles(head)
        print("  %-20s base %.6g [%.6g, %.6g]  head %.6g [%.6g, %.6g]"
              % (name, bq[1], bq[0], bq[2], hq[1], hq[0], hq[2]))
        print("  %-20s head better %d/%d (ties %d), median head/base %s"
              % ("", wins, len(pairs), ties,
                 "%.4f" % statistics.median(ratios) if ratios else "n/a"))
        if name == "fer":
            diff = [s for b, h, s in pairs if b != h]
            print("  %-20s per-seed fer %s" % (
                "", "identical on every seed" if not diff
                else "DIFFERS on seeds %s" % diff))
for line in bad:
    print("FAILED: " + line)
sys.exit(1 if bad else 0)
EOF
