#!/usr/bin/env bash
# One-stop pre-merge gate: tier-1 suite, the per-phase cost-regression
# budgets (tests/trace_budget_test.cpp — the paper's lemmas as executable
# budgets), and the sanitizer matrix. The budget test runs again under
# TSan via sanitize.sh, so a data race in the tracer cannot hide behind
# a green plain-mode run.
#
# Usage: tools/check.sh [fast]
#   fast  — skip the sanitizer matrix, the fuzz smoke and the socket
#           benchmark smoke (tier-1 + budgets only)

set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-full}"
jobs="$(nproc 2>/dev/null || echo 4)"

echo "=== [check] one share decoder ==="
# Every threshold decode goes through poly/reed_solomon.h (syndrome first,
# Berlekamp-Welch behind it); outside src/poly/ nothing may call
# berlekamp_welch directly.
if grep -rl 'berlekamp_welch' src --exclude-dir=poly; then
  echo "check.sh: the files above name berlekamp_welch outside src/poly/;" \
    "decode through poly/reed_solomon.h (rs_decode_agreeing)" >&2
  exit 1
fi

echo "=== [check] tier-1: configure + build ==="
cmake -B build -S . >/dev/null
cmake --build build -j "$jobs"

echo "=== [check] tier-1: ctest ==="
(cd build && ctest --output-on-failure -j "$jobs")

echo "=== [check] cost-regression budgets (trace_budget_test) ==="
./build/tests/trace_budget_test

echo "=== [check] pipelined Coin-Gen smoke (bench/pipeline) ==="
# Smoke run of E16: every depth must match the pipeline's schedule run as
# a serial loop bit-for-bit ("serial_match": "yes"; the bench exits 1 on
# any mismatch) and no envelope may cross batches (stale 0).
pipeline_out="$(./build/bench/pipeline --json --smoke)"
echo "$pipeline_out"
echo "$pipeline_out" | grep -q '"serial_match": "yes"' || {
  echo "check.sh: pipeline diverged from the serial schedule" >&2
  exit 1
}
if echo "$pipeline_out" | grep '"stale"' | grep -qv '"stale": 0'; then
  echo "check.sh: pipeline reported cross-batch stale deliveries" >&2
  exit 1
fi

echo "=== [check] field kernel gate (pclmul / share-row kernels / row codec / chacha / golden / reed-solomon) ==="
# The hardware-vs-portable differentials, run twice: once with the PCLMUL
# latch free to pick the hardware path, once with DPRBG_FORCE_SCALAR=1
# pinning the GF(2^64) multiply and the share-row kernels to portable
# code. The forced rerun certifies that the portable path runs green on
# this host, not just that it exists. gf2_test holds the PCLMUL
# differentials (gated on the CPU, so they run in both modes),
# block_kernels_test the PolyBlock and inline-PCLMUL share-row kernel
# equivalences, serial_test the memcpy row codec, chacha_test the 4-block
# keystream against single blocks, golden_test the pinned keystream and
# the Coin-Gen and D-PRBG transcript digests that both modes must
# reproduce, reed_solomon_test the syndrome-first decoder against
# berlekamp_welch and the dispersal codec, and gradecast_test the
# dispersed Grade-Cast under its adversaries.
./build/tests/block_kernels_test
./build/tests/gf2_test
./build/tests/serial_test
./build/tests/chacha_test
./build/tests/golden_test
./build/tests/reed_solomon_test
./build/tests/gradecast_test
DPRBG_FORCE_SCALAR=1 ./build/tests/block_kernels_test
DPRBG_FORCE_SCALAR=1 ./build/tests/gf2_test
DPRBG_FORCE_SCALAR=1 ./build/tests/serial_test
DPRBG_FORCE_SCALAR=1 ./build/tests/chacha_test
DPRBG_FORCE_SCALAR=1 ./build/tests/golden_test
DPRBG_FORCE_SCALAR=1 ./build/tests/reed_solomon_test
DPRBG_FORCE_SCALAR=1 ./build/tests/gradecast_test

echo "=== [check] wide-batch M-sweep smoke (bench/pipeline --sweep-M) ==="
# E20 smoke: at every swept M and depth, the pipeline must match the
# serial schedule bit-for-bit and no envelope may cross batches. The
# bench exits 1 itself on violations; the greps below double-check the
# markers.
sweep_out="$(./build/bench/pipeline --json --smoke --sweep-M)"
echo "$sweep_out"
if echo "$sweep_out" | grep '"serial_match"' | grep -v '"serial_match": "n/a"' \
    | grep -qv '"serial_match": "yes"'; then
  echo "check.sh: M-sweep diverged from the serial schedule" >&2
  exit 1
fi
if echo "$sweep_out" | grep '"stale"' | grep -qv '"stale": 0'; then
  echo "check.sh: M-sweep reported cross-batch stale deliveries" >&2
  exit 1
fi
# Kernel-level differential sweep (field_ops --sweep-M asserts every
# fast path — SIMD, PCLMUL share-row kernels, 4-block ChaCha — equal to
# its reference on every timed buffer and exits 1 on mismatch).
./build/bench/field_ops --sweep-M --smoke --json >/dev/null || {
  echo "check.sh: field_ops kernel sweep differential failed" >&2
  exit 1
}

echo "=== [check] sharded-beacon smoke (bench/beacon) ==="
# Smoke run of E17 at K in {1,2}: honest players must agree on every
# committee's coins ("success": "yes"), no envelope may cross batches
# (stale 0) or committee rosters (foreign 0), and the per-committee
# fault-ledger sum must reconcile with Cluster::faults() (the bench
# exits nonzero itself on any of these).
beacon_out="$(./build/bench/beacon --json --smoke)"
echo "$beacon_out"
if echo "$beacon_out" | grep '"success"' | grep -qv '"success": "yes"'; then
  echo "check.sh: beacon committees disagreed or failed" >&2
  exit 1
fi
if echo "$beacon_out" | grep '"foreign"' | grep -qv '"foreign": 0'; then
  echo "check.sh: beacon reported cross-committee deliveries" >&2
  exit 1
fi

echo "=== [check] degraded-beacon smoke (bench/beacon --crash-committee) ==="
# Smoke run of E18: the last committee crashes after its first batch;
# the bench itself hard-fails unless the crashed committee is evicted,
# the survivors stay unanimous, and the degraded rate clears the
# liveness floor. Double-check the degraded marking here so a silently
# healthy-looking crashed run cannot slip through.
degraded_out="$(./build/bench/beacon --json --smoke --crash-committee)"
echo "$degraded_out"
echo "$degraded_out" | grep -q '"mode": "crashed".*"degraded": "yes"' || {
  echo "check.sh: crashed beacon run not marked degraded" >&2
  exit 1
}
echo "$degraded_out" | grep -q '"mode": "crashed".*"evicted": "yes"' || {
  echo "check.sh: crashed committee was not evicted" >&2
  exit 1
}

echo "=== [check] beacon failover chaos suite ==="
# Hostage committees evicted by the wall-clock monitor, and by peer
# standing once more than t members are banned.
./build/tests/chaos_beacon_test
./build/tests/beacon_failover_test

echo "=== [check] adversarial hardening suite (misbehavior / DoS / wire) ==="
# The stalling-peer DoS scenario (hostage detected, scored, banned;
# survivors bit-for-bit equal to a from-scratch run) plus the envelope
# and echo codec suite and the varint suite in the plain build. All four
# run again under the sanitizer matrix via ctest.
./build/tests/misbehavior_test
./build/tests/dos_stall_test
./build/tests/wire_format_test
./build/tests/varint_test

echo "=== [check] TCP transport gate (loopback equivalence + process smoke) ==="
# The frame codec suite and the loopback equivalence suite: VSS,
# Grade-Cast, and pipelined Coin-Gen over real sockets must be
# bit-for-bit equal to the simulated cluster at the same seeds (both
# suites run again under the sanitizer matrix via ctest).
./build/tests/tcp_framing_test
./build/tests/tcp_cluster_test

echo "=== [check] TCP stress (tcp_cluster_test x20) ==="
# Reader-role handoff and lost-wakeup bugs depend on timing and may show
# only under load, so the suite repeats; full mode repeats it under TSan
# too, after the sanitizer matrix.
./build/tests/tcp_cluster_test --gtest_repeat=20 --gtest_brief=1

# Multi-process smoke: three dprbg_node processes on loopback must mint
# at least one beacon output and print IDENTICAL beacon lines — the
# distributed deployment's observable contract. PID-derived ports keep
# concurrent check.sh runs on one host from colliding; a port some other
# program holds makes a node exit 3, and only then the smoke runs once
# more on a base port 10007 away.
#
# node_smoke DIR BASE_PORT: runs the three nodes; returns 0 when all exit
# 0, 3 when some node could not bind its port, 1 otherwise. A node that
# exits 3 stops the other two at once: they would only wait out their
# mesh bring-up timeout.
node_smoke() {
  local dir="$1" base="$2" rc=0 st p i
  local -A live=()
  for i in 0 1 2; do
    echo "127.0.0.1:$((base + i))"
  done > "$dir/roster.txt"
  for i in 0 1 2; do
    ./build/tools/dprbg_node --roster="$dir/roster.txt" --id="$i" \
      --batches=1 --m=2 --metrics="$dir/node$i.metrics.jsonl" \
      > "$dir/node$i.out" 2> "$dir/node$i.err" &
    live[$!]=1
  done
  while ((${#live[@]})); do
    st=0
    wait -n -p p "${!live[@]}" || st=$?
    unset "live[$p]"
    if [[ "$st" == 3 ]]; then
      if ((${#live[@]})); then
        kill "${!live[@]}" 2>/dev/null || true
        wait "${!live[@]}" 2>/dev/null || true
      fi
      return 3
    elif [[ "$st" != 0 ]]; then
      rc=1
    fi
  done
  return "$rc"
}
tcp_dir="$(mktemp -d)"
tcp_rc=0
node_smoke "$tcp_dir" $((20000 + ($$ % 20000))) || tcp_rc=$?
if [[ "$tcp_rc" == 3 ]]; then
  echo "check.sh: a dprbg_node port was in use; retrying on another" >&2
  cat "$tcp_dir"/node*.err >&2
  tcp_rc=0
  node_smoke "$tcp_dir" $((20000 + (($$ + 10007) % 20000))) || tcp_rc=$?
fi
if [[ "$tcp_rc" != 0 ]]; then
  echo "check.sh: dprbg_node smoke failed" >&2
  cat "$tcp_dir"/node*.err >&2
  exit 1
fi
beacons="$(grep -c '^BEACON' "$tcp_dir/node0.out")"
echo "dprbg_node smoke: $beacons beacon outputs"
[[ "$beacons" -ge 1 ]] || {
  echo "check.sh: dprbg_node produced no beacon output" >&2
  exit 1
}
cmp "$tcp_dir/node0.out" "$tcp_dir/node1.out" || {
  echo "check.sh: nodes 0 and 1 disagree on beacon outputs" >&2
  exit 1
}
cmp "$tcp_dir/node0.out" "$tcp_dir/node2.out" || {
  echo "check.sh: nodes 0 and 2 disagree on beacon outputs" >&2
  exit 1
}
# The per-node transport telemetry snapshot must render cleanly.
./build/tools/metrics_report report "$tcp_dir/node0.metrics.jsonl" >/dev/null
rm -rf "$tcp_dir"

echo "=== [check] telemetry reconciliation gate ==="
# The telemetry unit suite (enable/disable identity, bucket math, the
# 8-thread hammer — the sanitizer matrix reruns it under TSan), then
# both benches' --metrics reconciliation: every snapshot counter must
# equal the cluster's own ledgers EXACTLY, and the beacon gate
# additionally cross-checks the trace layer's per-round comm deltas.
./build/tests/telemetry_test
metrics_dir="$(mktemp -d)"
trap 'rm -rf "$metrics_dir"' EXIT
./build/bench/pipeline --json --smoke --metrics="$metrics_dir/pipeline.jsonl" \
  >/dev/null || {
  echo "check.sh: pipeline telemetry reconciliation failed" >&2
  exit 1
}
./build/bench/beacon --json --smoke --metrics="$metrics_dir/beacon.jsonl" \
  >/dev/null || {
  echo "check.sh: beacon telemetry reconciliation failed" >&2
  exit 1
}
# The snapshots must render cleanly (no malformed lines -> exit 0).
./build/tools/metrics_report report "$metrics_dir/beacon.jsonl" >/dev/null
./build/tools/metrics_report top-talkers "$metrics_dir/beacon.jsonl" >/dev/null
./build/tools/metrics_report diff "$metrics_dir/pipeline.jsonl" \
  "$metrics_dir/beacon.jsonl" >/dev/null

if [[ "$mode" == "full" ]]; then
  echo "=== [check] sanitizer matrix ==="
  tools/sanitize.sh all

  echo "=== [check] TCP stress under TSan (tcp_cluster_test x5) ==="
  build-san-thread/tests/tcp_cluster_test --gtest_repeat=5 --gtest_brief=1

  echo "=== [check] fuzz corpus drift (make_corpus vs fuzz/corpus) ==="
  # The checked-in seeds must be exactly what make_corpus writes from the
  # current codecs: a codec edit that forgets to regenerate them, or a
  # stale seed left behind, fails here.
  corpus_dir="$(mktemp -d)"
  ./build-san-asan/fuzz/make_corpus "$corpus_dir" >/dev/null
  if ! diff -r "$corpus_dir" fuzz/corpus; then
    rm -rf "$corpus_dir"
    echo "check.sh: fuzz/corpus drifted; regenerate it with" \
      "make_corpus fuzz/corpus" >&2
    exit 1
  fi
  rm -rf "$corpus_dir"

  echo "=== [check] fuzz smoke (60s per target under ASan+UBSan) ==="
  # sanitize.sh configured build-san-asan with -DDPRBG_FUZZ=ON, so the
  # fuzz binaries there are address+UB instrumented. Each target replays
  # its checked-in corpus and then mutates from it for the smoke budget;
  # any trap/sanitizer report is a hard failure. Under clang this is
  # coverage-guided libFuzzer; under gcc the standalone driver honors
  # the same flags.
  for target in fuzz_varint fuzz_envelope_header fuzz_protocol_decoders; do
    corpus="fuzz/corpus/${target#fuzz_}"
    ./build-san-asan/fuzz/"$target" -max_total_time=60 -seed=1 "$corpus" || {
      echo "check.sh: fuzz smoke failed for $target" >&2
      exit 1
    }
  done

  echo "=== [check] socket benchmark build + smoke (benchmark/check.sh) ==="
  # benchmark/ builds the library from this checkout and static-asserts
  # the endpoint types it runs (NetEndpoint<TimedIo<TcpPartyIo>>,
  # NetEndpoint<PartyIo>), so a library change that breaks the benchmark
  # fails here instead of at benchmark time.
  benchmark/check.sh
else
  echo "=== [check] fast mode: sanitizer matrix, fuzz and benchmark smoke skipped ==="
fi

echo "check.sh: all requested gates passed"
