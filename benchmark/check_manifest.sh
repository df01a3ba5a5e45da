#!/usr/bin/env bash
# Check BENCHMARK.json the way the driver will: field by field, against what
# the harness really prints, from a clean copy of the checkout, and from a
# directory that holds the benchmark but not the program. Takes 2-3 minutes
# (two builds from scratch). Needs git and python3 for steps 2-4.
set -euo pipefail
cd "$(dirname "$0")/.."
bench=(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --)

echo "== 1. the manifest, field by field"
"${bench[@]}" --check-manifest

echo "== 2. every workload, untraced and traced, at smoke size"
mkdir -p benchmark/out
"${bench[@]}" --smoke --seed 7 >benchmark/out/smoke.txt
python3 - <<'EOF'
import json
manifest = json.load(open("BENCHMARK.json"))
want = {0: {m["name"]: m["unit"] for m in manifest["end_to_end"]},
        1: {m["name"]: m["unit"] for m in manifest["per_layer"]}}
runs = []
for line in open("benchmark/out/smoke.txt"):
    if line.startswith("# ") and " trace " in line and " seed " in line:
        words = line.split()
        runs.append([words[1], int(words[5].rstrip(":")), None])
    elif line.startswith("{"):
        runs[-1][2] = json.loads(line)
expected = [[w["name"], t] for w in manifest["workloads"] for t in (0, 1)]
assert [r[:2] for r in runs] == expected, f"runs were {[r[:2] for r in runs]}"
for workload, traced, result in runs:
    assert result is not None, f"{workload} trace {traced} printed no result"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result)
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    missing, extra = want[traced].keys() - got.keys(), got.keys() - want[traced].keys()
    assert not missing and not extra, f"{workload} trace {traced}: missing {missing}, extra {extra}"
    assert got == want[traced], f"{workload} trace {traced}: units differ from the manifest"
    assert all(set(v) == {"value", "unit"} for v in result["metrics"].values())
print(f"{len(runs)} runs print exactly the manifest's metrics, 0 failed operations")
EOF

echo "== 3. the recorded command, from a clean copy of the checkout"
clean=benchmark/out/clean
rm -rf "$clean" && mkdir -p "$clean"
git ls-files -z --cached --others --exclude-standard | tar --null -T - -cf - | tar -xf - -C "$clean"
mapfile -t command < <(python3 -c 'import json; print(*json.load(open("BENCHMARK.json"))["command"], sep="\n")')
(cd "$clean" && CARGO_TARGET_DIR=.bench_build "${command[@]}" \
    --workload tiny_hot --seed 1 --seconds 1 --trace 0 | tail -n 1 >result.json)
python3 -c 'import json, sys; r = json.load(open(sys.argv[1])); assert r["correct"], r' "$clean/result.json"
echo "built and ran: $(cut -c1-80 "$clean/result.json")..."

echo "== 4. the same command where only the benchmark exists: it must fail and print no result"
bare=benchmark/out/bare
rm -rf "$bare" && mkdir -p "$bare"
cp "$clean/BENCHMARK.json" "$bare/" && cp -r "$clean/benchmark" "$bare/benchmark"
if (cd "$bare" && CARGO_TARGET_DIR=.bench_build "${command[@]}" \
    --workload tiny_hot --seed 1 --seconds 1 --trace 0 >out.txt 2>err.txt); then
    echo "the command succeeded without the program" >&2
    exit 1
fi
if grep -q '"metrics"' "$bare/out.txt"; then
    echo "the command printed a result without the program" >&2
    exit 1
fi
echo "failed as it must: $(tail -n 1 "$bare/err.txt")"
rm -rf "$clean" "$bare"
echo "BENCHMARK.json: ok"
