// Pipelined Coin-Gen scheduler: a depth-D window of in-flight Coin-Gen
// batches over the cluster's round streams (net/cluster.h).
//
// Coin-Gen's ~10 rounds (Lemma 8 at t=1) are latency-bound: each round is
// one network traversal, and the protocol's per-round compute is tiny.
// Running B batches back-to-back therefore costs B * 10 round trips. But
// distinct batches share no state — each is its own dealing, its own
// graph, its own leader draw — so batch k+1's deal round can ride the
// same traversal as batch k's gradecast. This driver overlaps up to
// `depth` batches, each on its own round stream (wire-tagged, demuxed by
// the cluster), cutting wall-clock to ~B/D * 10 traversals.
//
// One schedule at every depth >= 1: batch b runs on a worker thread
// against the per-batch PartyIo handle `io.instance(first_batch_id + b)`
// with its own charged sub-pool. Launch batches 0..D-1, then on joining
// batch b launch batch b+D; batches complete and are drained strictly in
// order (identical at every player, which keeps the streams
// deadlock-free). Depth changes only how many batches overlap, never a
// transcript: every batch sees the same stream, rng and sub-pool at any
// depth, as long as the pool covers every batch's full charge (returned
// coins land at its tail, behind the coins still to be charged).
//
// Seed-coin accounting: the pool must be touched only from the driving
// thread in a canonical order (honest pools are index-aligned across
// players). Each batch is charged an up-front sub-pool of
// min(1 + kLeaderCoins, pool.remaining()) coins at launch; unspent coins
// return to the pool when the batch is joined. Both happen in launch /
// join order, so pool alignment is preserved no matter how the batches
// interleave in wall-clock.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "ba/binary_ba.h"
#include "common/check.h"
#include "common/metrics.h"
#include "common/telemetry.h"
#include "gf/field_concept.h"
#include "net/endpoint.h"
#include "coin/coin_gen.h"
#include "dprbg/coin_pool.h"

namespace dprbg {

// Seed coins charged per pipelined batch beyond the Bit-Gen challenge: one
// per leader draw the batch may make. A draw lands on a faulty player with
// probability <= t/n (Lemma 8), so a batch fails with probability
// <= (t/n)^kLeaderCoins; a failed batch is wasted, not fatal, and the
// caller's refill loop retries it (DESIGN.md §10).
inline constexpr unsigned kLeaderCoins = 3;

struct PipelineOptions {
  // In-flight window: how many Coin-Gen batches overlap (>= 1).
  unsigned depth = 2;
  // Round-stream id of batch 0; batch b runs on stream first_batch_id + b.
  // Must be nonzero (stream 0 is the caller's root stream) and must not
  // reuse a stream id from an earlier pipeline run on the same cluster.
  std::uint32_t first_batch_id = 1;
  // Launch gate: consulted once per batch index, in batch order, right
  // before that batch would be launched. Returning false stops the
  // pipeline — the gated batch and everything after it never run (their
  // result slots stay default, success=false) and `cancelled` is set.
  // The verdict MUST be identical across all players for a given batch
  // index, or the per-batch roster barriers deadlock; the beacon layer
  // guarantees this by latching verdicts in a shared HealthBoard
  // (beacon/beacon_failover.h). Empty = always launch.
  std::function<bool(unsigned)> may_launch;
  // Heartbeat: invoked on the driving thread after batch b has been
  // joined and drained (in batch order). The failover monitor uses it as
  // the committee's progress signal. Empty = no reporting.
  std::function<void(unsigned)> on_batch_joined;
};

template <FiniteField F>
struct PipelineResult {
  // Per-batch outcomes, in batch order (index b = stream
  // first_batch_id + b).
  std::vector<CoinGenResult<F>> batches;
  // Seed coins actually consumed across all batches (unspent charges are
  // returned to the pool and not counted).
  unsigned seed_coins_used = 0;
  // Batches actually launched (== batches.size() unless the launch gate
  // closed the pipeline early).
  unsigned launched = 0;
  // True iff opts.may_launch stopped the pipeline before every batch ran.
  bool cancelled = false;

  [[nodiscard]] unsigned successes() const {
    unsigned s = 0;
    for (const auto& b : batches) {
      if (b.success) ++s;
    }
    return s;
  }
};

// Runs `batches` Coin-Gen instances of M=m coins each, overlapping up to
// opts.depth of them. All players call in lockstep with identical
// arguments (as with coin_gen itself). Exceptions from worker threads are
// rethrown only after every launched batch has been joined.
template <FiniteField F, NetEndpoint Io, typename Ba = DefaultBinaryBa>
PipelineResult<F> pipelined_coin_gen(Io& io, unsigned m,
                                     CoinPool<F>& pool, unsigned batches,
                                     const PipelineOptions& opts = {},
                                     const Ba& ba = default_binary_ba) {
  DPRBG_CHECK(opts.depth >= 1);
  PipelineResult<F> result;
  result.batches.resize(batches);
  if (batches == 0) return result;

  // Telemetry handles, acquired once per call and only when enabled (the
  // disabled mode performs zero registry mutations). Counted once per
  // player per event — see the aggregation note in common/telemetry.h.
  struct PipelineTel {
    Counter* batches = nullptr;   // joined batches
    Counter* failures = nullptr;  // joined with success=false
    Histogram* batch_us = nullptr;  // launch -> join wall time
    Histogram* gen_us = nullptr;    // worker coin_gen wall time
    Gauge* inflight = nullptr;      // current window occupancy
  };
  PipelineTel tel;
  const bool tel_on = telemetry_enabled();
  if (tel_on) {
    MetricsRegistry& reg = metrics();
    tel.batches = &reg.counter("pipeline_batches_total");
    tel.failures = &reg.counter("pipeline_batch_failures_total");
    tel.batch_us = &reg.histogram("pipeline_batch_us");
    tel.gen_us = &reg.histogram("pipeline_gen_us");
    tel.inflight = &reg.gauge("pipeline_inflight_depth");
  }

  struct InFlight {
    std::thread th;
    CoinPool<F> subpool;          // this batch's seed-coin charge
    CoinGenResult<F> outcome;
    FieldCounters ops;            // worker-thread field ops, harvested
    std::exception_ptr error;
    TelemetryClock::time_point launched_at;  // set only when telemetry on
  };
  std::vector<InFlight> flight(batches);

  auto launch = [&](unsigned b) {
    InFlight& fl = flight[b];
    const std::size_t charge =
        std::min<std::size_t>(1 + kLeaderCoins, pool.remaining());
    fl.subpool.add_batch(pool.take_batch(charge));
    const std::uint32_t stream = opts.first_batch_id + b;
    if (tel_on) fl.launched_at = TelemetryClock::now();
    Histogram* const gen_us = tel.gen_us;
    fl.th = std::thread([&fl, &io, &ba, m, stream, gen_us] {
      // field_counters() is thread_local; measure this worker's delta so
      // the driver can fold it back into the driving thread's counters
      // (keeping Cluster::per_player_field_ops exact).
      const FieldCounters before = field_counters();
      TelemetryClock::time_point t0;
      if (gen_us != nullptr) t0 = TelemetryClock::now();
      try {
        Io& bio = io.instance(stream);
        fl.outcome = coin_gen<F>(bio, m, fl.subpool, kLeaderCoins, ba);
      } catch (...) {
        fl.error = std::current_exception();
      }
      if (gen_us != nullptr) gen_us->observe(telemetry_elapsed_us(t0));
      fl.ops = field_counters() - before;
    });
  };

  // Launch through the gate: once it closes, no further batch starts
  // (every player sees the same latched verdict, so all of them stop
  // launching at the same index and the join loop drains what's left).
  unsigned next_launch = 0;
  auto try_launch = [&] {
    if (result.cancelled || next_launch >= batches) return;
    if (opts.may_launch && !opts.may_launch(next_launch)) {
      result.cancelled = true;
      return;
    }
    launch(next_launch);
    ++next_launch;
  };

  const unsigned window = std::min(opts.depth, batches);
  for (unsigned i = 0; i < window; ++i) try_launch();
  if (tel_on) tel.inflight->set(next_launch);

  std::exception_ptr first_error;
  for (unsigned b = 0; b < next_launch; ++b) {  // next_launch grows below
    InFlight& fl = flight[b];
    fl.th.join();
    field_counters() += fl.ops;
    if (fl.error && !first_error) first_error = fl.error;
    result.batches[b] = std::move(fl.outcome);
    result.seed_coins_used += result.batches[b].seed_coins_used;
    if (!fl.subpool.empty()) {
      pool.add_batch(fl.subpool.take_batch(fl.subpool.remaining()));
    }
    if (tel_on) {
      tel.batch_us->observe(telemetry_elapsed_us(fl.launched_at));
      tel.batches->add(1);
      if (!result.batches[b].success) tel.failures->add(1);
    }
    if (opts.on_batch_joined) opts.on_batch_joined(b);
    try_launch();
    if (tel_on) {
      tel.inflight->set(static_cast<std::int64_t>(next_launch) - (b + 1));
    }
  }
  result.launched = next_launch;
  if (first_error) std::rethrow_exception(first_error);
  return result;
}

}  // namespace dprbg
