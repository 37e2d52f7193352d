#!/usr/bin/env bash
# Run-to-run spread of the benchmark's metrics.
#
# Usage:
#   benchmark/spread.sh [-k RUNS] [-s FIRST_SEED] [-t SECONDS] [WORKLOAD...]
#   benchmark/spread.sh --summary A.jsonl [B.jsonl]
#
# Runs RUNS fresh processes per workload (default 5; seeds FIRST_SEED,
# FIRST_SEED+1, ...; default 1) through benchmark/run.py, alternating the
# workload order from one round to the next so that no workload always runs
# first. Results are appended to
# .bench_build/spread/<time>.jsonl, one {"workload", "seed", "result"} per
# line, and summarised per workload and metric as the median, the first
# and third quartiles (statistics.quantiles, n=4) and the spread
# (q3 - q1) / median. --summary re-prints saved files; given two, it also
# prints how far the second set's medians moved from the first's.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"

summarise() {
  python3 - "$@" <<'EOF'
import json, statistics, sys

def load(path):
    runs = {}
    for line in open(path):
        rec = json.loads(line)
        for name, m in rec["result"]["metrics"].items():
            runs.setdefault(rec["workload"], {}).setdefault(name, []).append(m["value"])
    return runs

sets = [load(p) for p in sys.argv[1:]]
for i, runs in enumerate(sets):
    print(f"== {sys.argv[i + 1]}")
    for w, metrics in runs.items():
        for name, vals in metrics.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            print(f"{w:15s} {name:28s} n={len(vals):2d} median={med:14.6g} "
                  f"q1={q1:14.6g} q3={q3:14.6g} spread={spread:7.2%}")
if len(sets) == 2:
    print("== median drift (second vs first)")
    for w, metrics in sets[0].items():
        for name, vals in metrics.items():
            other = sets[1].get(w, {}).get(name)
            if not other:
                continue
            a, b = statistics.median(vals), statistics.median(other)
            drift = (b - a) / a if a else 0.0
            print(f"{w:15s} {name:28s} {a:14.6g} -> {b:14.6g} {drift:+7.2%}")
EOF
}

if [[ "${1:-}" == "--summary" ]]; then
  shift
  summarise "$@"
  exit 0
fi

runs=5
seed=1
seconds=24
while getopts "k:s:t:" opt; do
  case "$opt" in
    k) runs="$OPTARG" ;;
    s) seed="$OPTARG" ;;
    t) seconds="$OPTARG" ;;
    *) exit 2 ;;
  esac
done
shift $((OPTIND - 1))
workloads=("$@")
if [[ ${#workloads[@]} -eq 0 ]]; then
  workloads=(draw-m64 draw-m64-crash node-m4-d2 mint-m4096-d4)
fi

out_dir="$root/.bench_build/spread"
mkdir -p "$out_dir"
out="$out_dir/$(date +%Y%m%d-%H%M%S).jsonl"
for ((i = 0; i < runs; i++)); do
  order=("${workloads[@]}")
  if ((i % 2 == 1)); then
    order=()
    for ((j = ${#workloads[@]} - 1; j >= 0; j--)); do order+=("${workloads[j]}"); done
  fi
  for w in "${order[@]}"; do
    s=$((seed + i))
    result="$(python3 "$root/benchmark/run.py" --workload "$w" --seed "$s" \
      --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1)"
    printf '{"workload": "%s", "seed": %d, "result": %s}\n' "$w" "$s" "$result" >> "$out"
    echo "spread.sh: $w seed $s done" >&2
  done
done
echo "spread.sh: results in $out" >&2
summarise "$out"
