// Experiment E16: pipelined Coin-Gen throughput vs pipeline depth.
//
// Paper context: Coin-Gen's round count is constant (Lemma 8 — 10
// lockstep rounds at t=1), so in a deployed synchronous system a refill
// of B batches pays B * rounds network traversals back-to-back. Distinct
// batches share no state, so a depth-D pipeline (coin/coin_pipeline.h)
// overlaps D batches on independent round streams and hides (D-1)/D of
// the round latency: wall-clock falls from ~B*(C + R*L) toward
// ~B*C + (B/D)*R*L (C = per-batch compute, R = rounds, L = per-round
// link latency).
//
// The harness simulates L with Cluster::set_round_latency_us (every
// player sleeps one traversal per round; transcripts are unaffected) and
// measures wall-clock and coins/sec at depths 1, 2, 4. Every depth is
// also cross-checked bit-for-bit against the pipeline's schedule written
// out as a serial loop (batch b on stream 1+b with a charged sub-pool) —
// same outputs, same message/byte/round totals.
//
// Flags: --json (machine-readable rows), --rtt-us=N (simulated one-way
// per-round latency, default 2000), --smoke (4 batches instead of 8, for
// CI), --batches=N, --metrics=FILE (extra telemetry-enabled run whose
// registry snapshot is written to FILE after a hard reconciliation
// against the cluster's own counters — the E17-style bug-trap; exits 1
// on any mismatch). The measured table rows always run with telemetry
// DISABLED, so --metrics never perturbs the reported numbers.
//
// --sweep-M (E20, DESIGN.md §14) replaces the depth table with a batch-
// width sweep: M = 4 ... 4096 coins per batch at depths 1 and 4, with
// the serial cross-check and the stale==0 invariant hard-asserted at
// every M and depth (exit 1 on any violation). Protocol cost per M is
// identical across kernel dispatch modes, so comparing this sweep
// against a DPRBG_FORCE_SCALAR=1 run isolates the wide-batch compute
// engine's contribution (BENCH_pipeline.json records both).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.h"
#include "common/telemetry.h"
#include "coin/coin_gen.h"
#include "coin/coin_pipeline.h"
#include "dprbg/coin_pool.h"
#include "dprbg/trusted_dealer.h"
#include "gf/gf2.h"
#include "net/cluster.h"

namespace dprbg {
namespace {

using F = GF2_64;
using bench::fmt;

constexpr int kN = 7;
constexpr int kT = 1;
constexpr unsigned kM = 4;  // coins per batch (default; --sweep-M varies it)
constexpr std::uint64_t kSeed = 4242;

struct RunStats {
  unsigned coins = 0;        // successfully minted coins (successes * M)
  double wall_ms = 0.0;      // cluster.run wall-clock
  CommCounters comm;
  std::uint64_t faults = 0;
  std::uint64_t stale = 0;
  // Player 0's per-batch outcomes, for the serial cross-check.
  std::vector<CoinGenResult<F>> outcomes;
};

// Every batch's full charge (challenge + kLeaderCoins leader draws), with
// slack.
std::vector<std::vector<SealedCoin<F>>> make_genesis(unsigned batches) {
  return trusted_dealer_coins<F>(
      kN, kT, static_cast<int>((1 + kLeaderCoins) * batches + 8), kSeed);
}

RunStats run_depth(unsigned depth, unsigned batches, unsigned rtt_us,
                   unsigned m) {
  auto genesis = make_genesis(batches);
  RunStats stats;
  Cluster cluster(kN, kT, kSeed);
  cluster.set_round_latency_us(rtt_us);
  std::vector<PipelineResult<F>> results(kN);
  const auto start = std::chrono::steady_clock::now();
  cluster.run(std::vector<Cluster::Program>(kN, [&](PartyIo& io) {
    CoinPool<F> pool;
    for (auto& c : genesis[io.id()]) pool.add(std::move(c));
    PipelineOptions opts;
    opts.depth = depth;
    results[io.id()] = pipelined_coin_gen<F>(io, m, pool, batches, opts);
  }));
  const auto stop = std::chrono::steady_clock::now();
  stats.wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  stats.coins = results[0].successes() * m;
  stats.comm = cluster.comm();
  stats.faults = cluster.faults().total();
  stats.stale = cluster.stale_rejections();
  stats.outcomes = std::move(results[0].batches);
  return stats;
}

// The pipeline's schedule as a serial loop on the driving thread: batch b
// runs on stream 1+b against a sub-pool charged 1 + kLeaderCoins coins,
// whose unspent coins go back to the pool. Same seed, same latency model.
RunStats run_serial_reference(unsigned batches, unsigned rtt_us,
                              unsigned m) {
  auto genesis = make_genesis(batches);
  RunStats stats;
  Cluster cluster(kN, kT, kSeed);
  cluster.set_round_latency_us(rtt_us);
  std::vector<std::vector<CoinGenResult<F>>> results(kN);
  const auto start = std::chrono::steady_clock::now();
  cluster.run(std::vector<Cluster::Program>(kN, [&](PartyIo& io) {
    CoinPool<F> pool;
    for (auto& c : genesis[io.id()]) pool.add(std::move(c));
    for (unsigned b = 0; b < batches; ++b) {
      CoinPool<F> sub;
      sub.add_batch(pool.take_batch(
          std::min<std::size_t>(1 + kLeaderCoins, pool.remaining())));
      results[io.id()].push_back(coin_gen<F>(io.instance(1 + b), m, sub));
      if (!sub.empty()) pool.add_batch(sub.take_batch(sub.remaining()));
    }
  }));
  const auto stop = std::chrono::steady_clock::now();
  stats.wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  unsigned successes = 0;
  for (const auto& r : results[0]) {
    if (r.success) ++successes;
  }
  stats.coins = successes * m;
  stats.comm = cluster.comm();
  stats.faults = cluster.faults().total();
  stats.stale = cluster.stale_rejections();
  stats.outcomes = std::move(results[0]);
  return stats;
}

// The telemetry gate: one extra depth-4 run with the registry live, then
// a hard reconciliation of the snapshot against the cluster's own
// ledgers — counters that merely "look plausible" are worthless, so any
// mismatch is a failure, same spirit as the E17 ledger gate. Returns
// true and writes the snapshot to `path` on success.
bool run_metrics_gate(const std::string& path, unsigned batches,
                      unsigned rtt_us) {
  metrics().reset();
  set_telemetry_enabled(true);
  auto genesis = make_genesis(batches);
  Cluster cluster(kN, kT, kSeed);
  cluster.set_round_latency_us(rtt_us);
  std::vector<PipelineResult<F>> results(kN);
  cluster.run(std::vector<Cluster::Program>(kN, [&](PartyIo& io) {
    CoinPool<F> pool;
    for (auto& c : genesis[io.id()]) pool.add(std::move(c));
    PipelineOptions opts;
    opts.depth = 4;
    results[io.id()] = pipelined_coin_gen<F>(io, kM, pool, batches, opts);
  }));
  cluster.publish_comm_telemetry();
  const MetricsSnapshot snap = metrics().snapshot();
  set_telemetry_enabled(false);

  bool ok = true;
  auto check = [&ok](const char* what, std::int64_t got,
                     std::int64_t want) {
    if (got != want) {
      std::fprintf(stderr,
                   "FAIL: telemetry reconciliation: %s: snapshot=%lld "
                   "cluster=%lld\n",
                   what, static_cast<long long>(got),
                   static_cast<long long>(want));
      ok = false;
    }
  };
  // Shared-state counters must equal the cluster's ledgers EXACTLY.
  check("stale rejections", snap.sum_values("net_stale_rejections_total"),
        static_cast<std::int64_t>(cluster.stale_rejections()));
  check("foreign rejections",
        snap.sum_values("net_foreign_rejections_total"),
        static_cast<std::int64_t>(cluster.foreign_rejections()));
  check("decode rejections",
        snap.sum_values("net_decode_rejections_total"),
        static_cast<std::int64_t>(cluster.decode_rejections()));
  check("slow envelopes", snap.sum_values("net_slow_envelopes_total"),
        static_cast<std::int64_t>(cluster.slow_envelopes()));
  check("banned suppressions",
        snap.sum_values("net_banned_suppressed_total"),
        static_cast<std::int64_t>(cluster.banned_suppressions()));
  check("fault effects", snap.sum_values("net_fault_effects_total"),
        static_cast<std::int64_t>(cluster.faults().total()));
  check("domain messages", snap.sum_values("net_domain_messages_total"),
        static_cast<std::int64_t>(cluster.comm().messages));
  check("domain bytes", snap.sum_values("net_domain_bytes_total"),
        static_cast<std::int64_t>(cluster.comm().bytes));
  // The per-domain ledger (all traffic is the default domain here).
  const Cluster::DomainLedger led = cluster.domain_ledger(0);
  check("domain-0 ledger stale",
        snap.sum_values("net_stale_rejections_total"),
        static_cast<std::int64_t>(led.stale));
  check("domain-0 ledger faults",
        snap.sum_values("net_fault_effects_total"),
        static_cast<std::int64_t>(led.faults.total()));
  // Per-player counters (satellite: the per_player_comm surfacing gap)
  // must sum back to the aggregate.
  check("player messages", snap.sum_values("net_player_messages_total"),
        static_cast<std::int64_t>(cluster.comm().messages));
  check("player bytes", snap.sum_values("net_player_bytes_total"),
        static_cast<std::int64_t>(cluster.comm().bytes));
  // Every player joins every batch once.
  check("pipeline batches", snap.sum_values("pipeline_batches_total"),
        static_cast<std::int64_t>(batches) * kN);
  const MetricSample* hist = snap.find("pipeline_batch_us");
  if (hist == nullptr ||
      hist->count != static_cast<std::uint64_t>(batches) * kN) {
    std::fprintf(stderr,
                 "FAIL: pipeline_batch_us histogram count != batches * n\n");
    ok = false;
  }
  if (!snap.write_json_file(path)) {
    std::fprintf(stderr, "FAIL: cannot write metrics snapshot to %s\n",
                 path.c_str());
    ok = false;
  }
  if (ok) {
    std::fprintf(stderr,
                 "telemetry reconciliation OK (%zu instruments) -> %s\n",
                 snap.samples.size(), path.c_str());
  }
  return ok;
}

bool outcomes_match(const std::vector<CoinGenResult<F>>& a,
                    const std::vector<CoinGenResult<F>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].success != b[i].success || a[i].clique != b[i].clique ||
        a[i].summed_dealers != b[i].summed_dealers ||
        a[i].qualified != b[i].qualified ||
        a[i].iterations != b[i].iterations ||
        a[i].seed_coins_used != b[i].seed_coins_used ||
        a[i].coin_shares.size() != b[i].coin_shares.size()) {
      return false;
    }
    for (std::size_t h = 0; h < a[i].coin_shares.size(); ++h) {
      if (!(a[i].coin_shares[h] == b[i].coin_shares[h])) return false;
    }
  }
  return true;
}

// Same outcomes and same message/byte/round totals as the serial loop.
bool matches_serial(const RunStats& r, const RunStats& serial) {
  return outcomes_match(r.outcomes, serial.outcomes) &&
         r.comm.messages == serial.comm.messages &&
         r.comm.bytes == serial.comm.bytes &&
         r.comm.rounds == serial.comm.rounds;
}

}  // namespace
}  // namespace dprbg

int main(int argc, char** argv) {
  using namespace dprbg;
  using namespace dprbg::bench;
  parse_args(argc, argv);
  unsigned batches = 8;
  unsigned rtt_us = 2000;
  bool sweep = false;
  bool smoke = false;
  std::string metrics_path;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--smoke") {
      batches = 4;
      smoke = true;
    }
    if (arg == "--sweep-M") sweep = true;
    if (arg.rfind("--rtt-us=", 0) == 0) {
      rtt_us = static_cast<unsigned>(std::atoi(argv[i] + 9));
    }
    if (arg.rfind("--batches=", 0) == 0) {
      batches = static_cast<unsigned>(std::atoi(argv[i] + 10));
    }
    if (arg.rfind("--metrics=", 0) == 0) metrics_path = arg.substr(10);
  }

  if (sweep) {
    print_header(
        "E20: Coin-Gen throughput vs batch width M",
        "per-coin protocol cost is flat in M (Lemma 8 rounds are "
        "M-independent), so coins/sec grows with M until compute "
        "dominates; the wide-batch kernels move that crossover and the "
        "compute ceiling — compare against a DPRBG_FORCE_SCALAR=1 run");
    const std::vector<unsigned> ms =
        smoke ? std::vector<unsigned>{4, 64, 1024}
              : std::vector<unsigned>{4, 16, 64, 256, 1024, 4096};
    const unsigned sweep_batches = smoke ? 2 : 4;
    Table table({"M", "depth", "coins", "wall_ms", "coins_per_s",
                 "serial_match", "stale", "faults"});
    table.context("n", fmt(kN));
    table.context("t", fmt(kT));
    table.context("rtt_us", fmt(rtt_us));
    table.context("batches", fmt(sweep_batches));
    table.context("clmul_hw", gf2_detail::clmul_hw ? "1" : "0");
    bool clean = true;
    for (const unsigned m : ms) {
      const RunStats serial = run_serial_reference(sweep_batches, rtt_us, m);
      if (serial.stale != 0) clean = false;
      for (const unsigned depth : {1u, 4u}) {
        const RunStats r = run_depth(depth, sweep_batches, rtt_us, m);
        const bool match = matches_serial(r, serial);
        if (!match) {
          std::fprintf(stderr,
                       "FAIL: depth-%u serial mismatch at M=%u\n", depth, m);
          clean = false;
        }
        if (r.stale != 0) {
          std::fprintf(stderr, "FAIL: %llu stale rejections at M=%u\n",
                       static_cast<unsigned long long>(r.stale), m);
          clean = false;
        }
        table.row({fmt(m), fmt(depth), fmt(r.coins), fmt(r.wall_ms),
                   fmt(r.coins / (r.wall_ms / 1000.0)),
                   match ? "yes" : "NO", fmt(r.stale), fmt(r.faults)});
      }
    }
    table.print();
    if (!json_mode()) {
      std::printf(
          "\nshape check: coins/sec rises with M (round latency "
          "amortized over more coins); serial_match yes and stale 0 at "
          "every M.\n");
    }
    return clean ? 0 : 1;
  }

  print_header(
      "E16: pipelined Coin-Gen throughput vs depth",
      "Coin-Gen is round-latency-bound (10 lockstep rounds, Lemma 8); "
      "overlapping D batches on independent round streams hides (D-1)/D "
      "of the round latency, multiplying coins/sec at constant per-batch "
      "cost");

  // Serial reference for the bit-for-bit cross-check.
  const RunStats serial = run_serial_reference(batches, rtt_us, kM);

  Table table({"depth", "batches", "coins", "wall_ms", "coins_per_s",
               "speedup", "serial_match", "stale", "faults"});
  table.context("n", fmt(kN));
  table.context("t", fmt(kT));
  table.context("M", fmt(kM));
  table.context("rtt_us", fmt(rtt_us));
  double depth1_wall = 0.0;
  bool clean = serial.stale == 0;
  for (unsigned depth : {1u, 2u, 4u}) {
    const RunStats r = run_depth(depth, batches, rtt_us, kM);
    if (r.stale != 0) {
      std::fprintf(stderr, "FAIL: %llu stale rejections at depth %u\n",
                   static_cast<unsigned long long>(r.stale), depth);
      clean = false;
    }
    if (depth == 1) depth1_wall = r.wall_ms;
    const bool match = matches_serial(r, serial);
    if (!match) {
      std::fprintf(stderr, "FAIL: depth-%u serial mismatch\n", depth);
      clean = false;
    }
    table.row({fmt(depth), fmt(batches), fmt(r.coins), fmt(r.wall_ms),
               fmt(r.coins / (r.wall_ms / 1000.0)),
               fmt(depth1_wall / r.wall_ms), match ? "yes" : "NO",
               fmt(r.stale), fmt(r.faults)});
  }
  table.print();
  // Clean pipelining means every depth replays the serial schedule and
  // the stream demux never had to reject a delayed envelope: either
  // failure is a scheduling bug, not noise.
  if (!clean) return 1;
  // After the measured (telemetry-disabled) rows: the instrumented run +
  // reconciliation gate.
  if (!metrics_path.empty() &&
      !run_metrics_gate(metrics_path, batches, rtt_us)) {
    return 1;
  }
  if (json_mode()) return 0;
  std::printf(
      "\nshape check: every depth matches the serial schedule bit-for-bit "
      "(outputs and message/byte/round totals); depth 4 should approach "
      "the B*C + (B/4)*R*L bound — >= 1.5x coins/sec over depth 1 at the "
      "default rtt.\n");
  return 0;
}
