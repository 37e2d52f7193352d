// Sharded randomness beacon: K independent committees, one combined coin
// stream.
//
// The paper's protocols are fixed-n cliques with Omega(n^2) messages per
// round, so one cluster's coin throughput is capped by its slowest
// member's round trip. Sharding is the standard way out: partition N =
// K*n players into K committees (net/committee.h), run the full
// pipelined Coin-Gen machinery (coin/coin_pipeline.h) in each committee
// concurrently — each on its own stream slice, roster barrier, fault
// plan and trace scope — and combine the K per-committee coin streams
// into one global beacon output by field addition, which in GF(2^k) is
// exactly bitwise XOR.
//
// Soundness of the combination (DESIGN.md §11): each committee's coin is
// unpredictable to an adversary bounded by t faults *in that committee*
// (Lemma 1/Lemma 3 soundness of the underlying VSS batches). XOR of
// independent committee coins is uniform as long as at least one
// contributing committee is honest-majority, because XOR with an
// independent uniform value is uniform. The beacon therefore degrades
// gracefully: corrupting a whole committee biases nothing while any
// other committee stays within its fault bound.
//
// Determinism contract (tests/beacon_test.cpp): the beacon output is a
// pure function of Options{seed, committees, committee_size, ...} —
// independent of pipeline depth and of how the committee threads
// interleave in wall-clock. Two ingredients make this hold:
//   * every Coin-Gen batch always runs on its own committee-local round
//     stream 1+b (even at depth 1, where the pipelined scheduler would
//     otherwise degenerate to the caller's stream), so the rng streams
//     consumed per batch never depend on the overlap window;
//   * seed coins are charged per batch up front from a genesis pool
//     sized to exactly batches * (1 + leader_coins) coins, so every
//     batch's charge is the same contiguous pool block at any depth
//     (returned unspent coins land at the pool's tail and are never
//     re-charged).
//
// Failover (beacon_failover.h, DESIGN.md §11): every batch launch and
// every exposure passes through a shared HealthBoard whose verdicts are
// latched per (committee, batch), so a committee that blows its
// wall-clock budget, crashes, or has more than t members banned by the
// cluster's misbehavior manager is dropped from the combination —
// entirely (the full-drop rule) — while the survivors keep emitting.
// The combine below is window-aligned: output window b is the XOR of
// every contributing committee's batch-b coins, with a per-window
// contributor mask, and `degraded` marks any output that is missing a
// committee. On the healthy path every gate is open and the output is
// bit-for-bit the pre-failover beacon (the golden tests in
// tests/beacon_test.cpp hold).

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/telemetry.h"
#include "gf/field_concept.h"
#include "net/cluster.h"
#include "net/committee.h"
#include "beacon/beacon_failover.h"
#include "beacon/beacon_status.h"
#include "coin/coin_expose.h"
#include "coin/coin_gen.h"
#include "coin/coin_pipeline.h"
#include "dprbg/coin_pool.h"
#include "dprbg/trusted_dealer.h"

namespace dprbg {

// Per-committee genesis entropy: disjoint dealer streams per committee,
// derived from the beacon seed with a SplitMix64-style mix.
inline std::uint64_t committee_seed(std::uint64_t seed, std::uint32_t c) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (c + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

template <FiniteField F>
class Beacon {
 public:
  struct Options {
    // K: number of committees; the cluster holds K * committee_size
    // players. Bounded by the stream slices fitting under the
    // kMaxStreamId stream cap (16 committees at the default stride of
    // 4096).
    unsigned committees = 2;
    unsigned committee_size = 7;
    unsigned committee_t = 1;
    // M: coins minted per Coin-Gen batch.
    unsigned coins_per_batch = 4;
    // Coin-Gen batches per committee (each on its own round stream).
    unsigned batches = 4;
    // Pipeline window per committee (1 = serial; transcripts are
    // depth-invariant either way, see the header comment).
    unsigned depth = 2;
    unsigned leader_coins = 3;
    unsigned max_iterations = 16;
    std::uint64_t seed = 0xBEAC04ull;
    // Simulated one-way per-round link latency (Cluster contract).
    unsigned round_latency_us = 0;
    // Failover policy (beacon_failover.h). The defaults gate nothing on
    // a healthy run: wall-clock monitoring is off until wall_budget_ms is
    // set, and misbehavior eviction is on only while a manager is
    // installed with cluster().set_misbehavior_manager().
    FailoverPolicy failover;
    // Scripted failures for tests and the liveness benchmark.
    BeaconChaos chaos;
  };

  struct CommitteeOutcome {
    // Exposed coin values, in batch-then-coin order; identical at every
    // member when `unanimous`.
    std::vector<F> coins;
    unsigned batches_ok = 0;
    unsigned seed_coins_used = 0;
    bool unanimous = true;
    // Final health verdicts from the HealthBoard.
    CommitteeHealth health = CommitteeHealth::kLive;
    EvictionReason reason = EvictionReason::kNone;
    unsigned evicted_at = 0;
    unsigned batches_done = 0;
  };

  struct Output {
    bool success = false;
    // Window-aligned combination: window b holds coins_per_batch values,
    // each the XOR over the contributing committees' batch-b coins. On a
    // healthy run this equals the flat XOR of the per-committee streams.
    std::vector<F> beacon;
    // Per emitted window, the contributing-committee bitmask (bit c =
    // committee c's batch went into that window).
    std::vector<std::uint32_t> window_mask;
    std::vector<CommitteeOutcome> committees;
    // True iff any committee left the live state or any emitted window
    // is missing a live committee's contribution.
    bool degraded = false;
    // HealthBoard counters for the whole run.
    HealthCounters health;
  };

  explicit Beacon(Options opts)
      : opts_(opts),
        cluster_(static_cast<int>(opts.committees * opts.committee_size),
                 static_cast<int>(opts.committee_t), opts.seed) {
    DPRBG_CHECK(opts_.committees >= 1);
    DPRBG_CHECK(opts_.batches >= 1);
    DPRBG_CHECK(opts_.committees * kStride <= 0x10000u);
    // batches+1 local streams per committee: root + one per batch.
    DPRBG_CHECK(opts_.batches + 1 <= kStride);
    cluster_.set_round_latency_us(opts_.round_latency_us);
    const int n = static_cast<int>(opts_.committee_size);
    for (unsigned c = 0; c < opts_.committees; ++c) {
      std::vector<int> members(n);
      for (int i = 0; i < n; ++i) members[i] = static_cast<int>(c) * n + i;
      Committee::Options copts;
      copts.id = c;
      copts.first_stream = c * kStride;
      copts.stream_count = kStride;
      copts.t = static_cast<int>(opts_.committee_t);
      committees_.push_back(std::make_unique<Committee>(
          cluster_, std::move(members), copts));
    }
    DPRBG_CHECK(opts_.chaos.crash_committee <
                static_cast<int>(opts_.committees));
    board_ = std::make_unique<HealthBoard>(opts_.committees, opts_.batches,
                                           opts_.failover);
  }

  [[nodiscard]] Cluster& cluster() { return cluster_; }
  [[nodiscard]] Committee& committee(unsigned c) { return *committees_[c]; }
  [[nodiscard]] const Options& options() const { return opts_; }
  [[nodiscard]] HealthBoard& board() { return *board_; }
  // Point-in-time health aggregate (beacon_status.h) — safe to poll
  // mid-run; this is the future service's health endpoint.
  [[nodiscard]] BeaconStatus status() const { return beacon_status(*board_); }

  // Runs the full beacon round: per-committee pipelined Coin-Gen, then
  // committee-local exposure of every minted coin, then the XOR-combine.
  // Blocks until every committee finishes. May be called once per Beacon
  // (stream ids are not reused across runs).
  Output run() {
    const unsigned K = opts_.committees;
    const int n = static_cast<int>(opts_.committee_size);
    const unsigned genesis_count =
        opts_.batches * (1 + opts_.leader_coins);
    std::vector<std::vector<std::vector<SealedCoin<F>>>> genesis(K);
    for (unsigned c = 0; c < K; ++c) {
      genesis[c] = trusted_dealer_coins<F>(
          n, opts_.committee_t, static_cast<int>(genesis_count),
          committee_seed(opts_.seed, c));
    }

    // Scripted evictions close their gates before anything launches.
    for (const auto& [c, b] : opts_.chaos.scripted_evictions) {
      board_->evict(c, b, EvictionReason::kScripted);
    }

    const int total = static_cast<int>(K) * n;
    // exposed[player][batch] = that batch's exposed coin values (empty
    // for failed/cancelled batches; the outer vector stays empty for
    // members that crashed before the exposure phase).
    std::vector<std::vector<std::vector<F>>> exposed(total);
    std::vector<PipelineResult<F>> results(total);
    {
      // The wall-clock watchdog lives exactly as long as the run (no-op
      // thread unless failover.wall_budget_ms > 0).
      BudgetMonitor monitor(*board_, K);
      cluster_.run(std::vector<Cluster::Program>(
          static_cast<std::size_t>(total), [&](PartyIo& io) {
            const unsigned c = static_cast<unsigned>(io.id() / n);
            const bool crashing =
                opts_.chaos.crash_committee == static_cast<int>(c);
            if (crashing && opts_.chaos.crash_at_batch == 0) return;
            Endpoint& ep = committees_[c]->endpoint(io);
            CoinPool<F> pool;
            for (auto& coin : genesis[c][ep.id()]) pool.add(std::move(coin));
            PipelineResult<F> res = run_batches(c, crashing, ep, pool);
            const bool expose_ok = !crashing && board_->may_expose(c);
            if (!expose_ok) {
              results[io.id()] = std::move(res);
              return;
            }
            // Expose every minted coin on the committee's root stream.
            // Coin-Gen decides batch success unanimously, so the exposure
            // instance counter stays aligned across the committee.
            std::vector<std::vector<F>> mine(opts_.batches);
            unsigned idx = 0;
            for (unsigned b = 0; b < res.batches.size(); ++b) {
              if (!res.batches[b].success) continue;
              for (const auto& coin :
                   res.batches[b].sealed_coins(opts_.committee_t)) {
                const auto v = coin_expose<F>(ep, coin, idx++);
                if (v) mine[b].push_back(*v);
              }
            }
            exposed[io.id()] = std::move(mine);
            results[io.id()] = std::move(res);
          }));
    }

    Output out;
    out.committees.resize(K);
    // Crash fallback: a committee that went silent without the monitor
    // noticing (every member returned before exposing anything, with
    // batches left to do) is evicted here so the combine drops it.
    for (unsigned c = 0; c < K; ++c) {
      if (board_->health(c) == CommitteeHealth::kEvicted) continue;
      if (board_->batches_done(c) >= opts_.batches) continue;
      bool all_silent = true;
      for (int m = 0; m < n; ++m) {
        if (!exposed[static_cast<std::size_t>(c) * n + m].empty()) {
          all_silent = false;
          break;
        }
      }
      if (all_silent) {
        board_->evict(c, board_->batches_done(c), EvictionReason::kCrashed);
      }
    }

    for (unsigned c = 0; c < K; ++c) {
      CommitteeOutcome& oc = out.committees[c];
      const std::size_t base = static_cast<std::size_t>(c) * n;
      for (const auto& batch : exposed[base]) {
        oc.coins.insert(oc.coins.end(), batch.begin(), batch.end());
      }
      for (int m = 1; m < n; ++m) {
        if (exposed[base + m] != exposed[base]) oc.unanimous = false;
      }
      oc.batches_ok = results[base].successes();
      oc.seed_coins_used = results[base].seed_coins_used;
      oc.health = board_->health(c);
      oc.reason = board_->reason(c);
      oc.evicted_at = board_->evicted_at(c);
      oc.batches_done = board_->batches_done(c);
    }

    // Window-aligned combine under the full-drop rule: an evicted
    // committee contributes nothing (not even pre-eviction batches), so
    // the degraded output is a pure function of the surviving set.
    // Committee c contributes to window b iff every member reported an
    // identical full batch of coins_per_batch values for it.
    std::uint32_t full_mask = 0;
    for (unsigned c = 0; c < K; ++c) {
      if (out.committees[c].health != CommitteeHealth::kEvicted) {
        full_mask |= 1u << c;
      }
    }
    const std::size_t M = opts_.coins_per_batch;
    const bool tel_on = telemetry_enabled();
    TelemetryClock::time_point combine_t0;
    if (tel_on) combine_t0 = TelemetryClock::now();
    for (unsigned b = 0; b < opts_.batches; ++b) {
      std::uint32_t mask = 0;
      std::vector<F> window(M, F::zero());
      for (unsigned c = 0; c < K; ++c) {
        if (out.committees[c].health == CommitteeHealth::kEvicted) continue;
        const std::size_t base = static_cast<std::size_t>(c) * n;
        bool ok = exposed[base].size() == opts_.batches &&
                  exposed[base][b].size() == M;
        for (int m = 1; ok && m < n; ++m) {
          ok = exposed[base + m].size() == opts_.batches &&
               exposed[base + m][b] == exposed[base][b];
        }
        if (!ok) continue;
        mask |= 1u << c;
        for (std::size_t i = 0; i < M; ++i) {
          window[i] = window[i] + exposed[base][b][i];
        }
      }
      if (mask == 0) continue;
      out.window_mask.push_back(mask);
      out.beacon.insert(out.beacon.end(), window.begin(), window.end());
      if (mask != full_mask) {
        out.degraded = true;
        board_->note_degraded_window();
      }
    }
    if (tel_on) {
      metrics().histogram("beacon_combine_us")
          .observe(telemetry_elapsed_us(combine_t0));
      metrics().counter("beacon_windows_total")
          .add(out.window_mask.size());
    }

    for (unsigned c = 0; c < K; ++c) {
      if (out.committees[c].health != CommitteeHealth::kLive) {
        out.degraded = true;
      }
    }
    out.success = !out.beacon.empty();
    for (unsigned c = 0; c < K; ++c) {
      if (out.committees[c].health == CommitteeHealth::kEvicted) continue;
      if (!out.committees[c].unanimous) out.success = false;
    }
    out.health = board_->counters();
    return out;
  }

 private:
  // Committee-local stream slice width: 16 committees fit under the
  // kMaxStreamId stream cap.
  static constexpr std::uint32_t kStride = 4096;

  // Depth-invariant batch schedule (see header comment): batch b always
  // runs on committee-local stream 1+b with the pipelined scheduler's
  // up-front seed-coin charge; depth only changes how many overlap.
  // Every launch consults the HealthBoard's latched gate (plus the
  // scripted crash cutoff) with the committee's fault-bound verdict from
  // peer standing, every join reports progress — in both the pipelined
  // and the serial schedule, so failover behaves identically at any
  // depth.
  PipelineResult<F> run_batches(unsigned c, bool crashing, Endpoint& ep,
                                CoinPool<F>& pool) {
    const unsigned crash_at = opts_.chaos.crash_at_batch;
    const Committee& com = *committees_[c];
    auto gate = [this, c, &com, crashing, crash_at](unsigned b) {
      if (crashing && b >= crash_at) return false;
      return board_->may_launch(c, b, com.banned_members() > com.t());
    };
    auto heartbeat = [this, c](unsigned b) {
      board_->report_batch_done(c, b);
    };
    PipelineOptions popts;
    popts.depth = opts_.depth;
    popts.first_batch_id = 1;
    popts.leader_coins = opts_.leader_coins;
    popts.max_iterations = opts_.max_iterations;
    popts.may_launch = gate;
    popts.on_batch_joined = heartbeat;
    if (opts_.depth > 1) {
      return pipelined_coin_gen<F>(ep, opts_.coins_per_batch, pool,
                                   opts_.batches, popts);
    }
    PipelineResult<F> res;
    res.batches.resize(opts_.batches);
    for (unsigned b = 0; b < opts_.batches; ++b) {
      if (!gate(b)) {
        res.cancelled = true;
        break;
      }
      CoinPool<F> sub;
      sub.add_batch(pool.take_batch(std::min<std::size_t>(
          1 + opts_.leader_coins, pool.remaining())));
      res.batches[b] = coin_gen<F>(ep.instance(1 + b), opts_.coins_per_batch,
                                   sub, opts_.max_iterations);
      res.seed_coins_used += res.batches[b].seed_coins_used;
      ++res.launched;
      if (!sub.empty()) pool.add_batch(sub.take_batch(sub.remaining()));
      heartbeat(b);
    }
    return res;
  }

  Options opts_;
  Cluster cluster_;
  std::vector<std::unique_ptr<Committee>> committees_;
  std::unique_ptr<HealthBoard> board_;
};

}  // namespace dprbg
