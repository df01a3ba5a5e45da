#!/usr/bin/env bash
# Does the benchmark agree with itself? Runs every workload ten times on one
# commit, as two sets of five runs with five different seeds each, and
# prints per workload and end-to-end metric the two set medians, their
# relative difference, the interquartile spread of all ten values as a share
# of their median, and the bound from BENCHMARK.json. Exits non-zero if a
# difference or (except for setup_s, as in the driver) a spread exceeds its
# bound. About 20 minutes. Needs python3.
#
# usage: benchmark/selfcheck.sh [first-seed]
set -euo pipefail
cd "$(dirname "$0")/.."
first=${1:-1}
out=benchmark/out/selfcheck
rm -rf "$out" && mkdir -p "$out"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bench=(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --)

workloads=$(python3 -c 'import json; print(*[w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]])')
for set in a b; do
    for i in 0 1 2 3 4; do
        seed=$((first + i))
        [ "$set" = b ] && seed=$((seed + 5))
        for w in $workloads; do
            echo "set $set: $w, seed $seed" >&2
            "${bench[@]}" --workload "$w" --seed "$seed" --trace 0 | tail -n 1 >"$out/$set-$w-$seed.json"
        done
    done
done

python3 - "$out" <<'EOF'
import glob, json, statistics, sys
out = sys.argv[1]
manifest = json.load(open("BENCHMARK.json"))
worst = 0.0
print("| workload | metric | set A median | set B median | difference | spread of ten | bound |")
print("|---|---|---:|---:|---:|---:|---:|")
for w in (w["name"] for w in manifest["workloads"]):
    runs = {s: [json.load(open(f)) for f in sorted(glob.glob(f"{out}/{s}-{w}-*.json"))] for s in "ab"}
    assert all(len(r) == 5 and all(x["correct"] for x in r) for r in runs.values()), w
    for m in manifest["end_to_end"]:
        values = {s: [x["metrics"][m["name"]]["value"] for x in runs[s]] for s in "ab"}
        a, b = statistics.median(values["a"]), statistics.median(values["b"])
        q1, _, q3 = statistics.quantiles(values["a"] + values["b"], n=4)
        diff, spread = abs(b - a) / a, (q3 - q1) / statistics.median(values["a"] + values["b"])
        over = max(diff, 0 if m["name"] == "setup_s" else spread) / m["bound"]
        worst = max(worst, over)
        flag = "" if over <= 1 else " **over**"
        print(f"| {w} | {m['name']} | {a:.4g} {m['unit']} | {b:.4g} {m['unit']} | {diff:.1%} | {spread:.1%}{flag} | {m['bound']:.0%} |")
sys.exit(0 if worst <= 1.0 else 1)
EOF
