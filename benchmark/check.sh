#!/usr/bin/env bash
# Smoke gate for the socket benchmark. Builds benchmark/, runs the tests of
# the benchmark's own logic, every workload at smoke size and one traced
# run, and checks that
#   * every run passes its own correctness checks and fails no request,
#   * every metric BENCHMARK.json names is printed with its unit,
#   * the traced run's time attribution sums to each stream's wall time
#     within 5%.
#
# Usage: benchmark/check.sh
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build/cmake"
jobs="$(nproc 2>/dev/null || echo 4)"
jobs=$((jobs > 4 ? 4 : jobs))

echo "=== [bench-check] build ==="
cmake -S "$root/benchmark" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build "$build" -j "$jobs"

echo "=== [bench-check] unit tests ==="
"$build/dprbg_bench_test"

# Checks a run's JSON result line ($2) against BENCHMARK.json's metric
# list ($1: end_to_end or per_layer).
check_result() {
  python3 - "$1" "$root/BENCHMARK.json" "$2" <<'EOF'
import json, sys
kind, spec_path, line = sys.argv[1], sys.argv[2], sys.argv[3]
spec = json.load(open(spec_path))
result = json.loads(line)
errors = []
if result["correct"] is not True:
    errors.append("correct is not true")
if result["failed"] != 0 or result["attempted"] < 1:
    errors.append("attempted=%d failed=%d" % (result["attempted"], result["failed"]))
for m in spec[kind]:
    got = result["metrics"].get(m["name"])
    if got is None:
        errors.append("metric %s missing" % m["name"])
    elif got["unit"] != m["unit"]:
        errors.append("metric %s unit %s != %s" % (m["name"], got["unit"], m["unit"]))
if kind == "per_layer":
    err = result["metrics"]["trace.attribution_err_max"]["value"]
    if err > 0.05:
        errors.append("attribution misses %.1f%% of a stream's wall time" % (err * 100))
if errors:
    sys.exit("check.sh: " + "; ".join(errors))
print("ok: %d %s metrics, %d requests" % (len(spec[kind]), kind, result["attempted"]))
EOF
}

workloads="$(python3 -c "import json; print(' '.join(w['name'] for w in json.load(open('$root/BENCHMARK.json'))['workloads']))")"
for w in $workloads; do
  echo "=== [bench-check] smoke: $w ==="
  out="$("$build/dprbg_bench" --workload="$w" --smoke)"
  check_result end_to_end "$(tail -n 1 <<<"$out")"
done

echo "=== [bench-check] traced smoke: draw-m64 ==="
out="$("$build/dprbg_bench" --workload=draw-m64 --smoke --trace --seconds=8)"
check_result per_layer "$(tail -n 1 <<<"$out")"
echo "=== [bench-check] all green ==="
