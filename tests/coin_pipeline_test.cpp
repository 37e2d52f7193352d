// Pipelined Coin-Gen (coin/coin_pipeline.h) + round streams
// (net/cluster.h): every depth must reproduce the hand-written batch
// schedule bit-for-bit, overlapped depths must replay deterministically
// from a fixed seed, and per-batch instance handles must stay fully
// isolated (independent rounds, rng, inboxes; zero cross-batch
// deliveries).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "coin/coin_expose.h"
#include "coin/coin_gen.h"
#include "coin/coin_pipeline.h"
#include "common/trace.h"
#include "dprbg/coin_pool.h"
#include "dprbg/trusted_dealer.h"
#include "gf/gf2.h"
#include "net/cluster.h"

namespace dprbg {
namespace {

using F = GF2_64;

constexpr int kN = 7;
constexpr int kT = 1;
constexpr unsigned kM = 4;

struct PipelineRun {
  std::vector<PipelineResult<F>> results;  // per player
  // [player][batch][coin] exposed values (root stream, after the drain).
  std::vector<std::vector<std::vector<std::optional<F>>>> coins;
  CommCounters comm;
  std::uint64_t stale = 0;
};

// One player's minting of `batches` batches from its genesis pool.
using Mint =
    std::function<PipelineResult<F>(PartyIo&, CoinPool<F>&, unsigned)>;

PipelineRun run_with(std::uint64_t seed, unsigned batches, const Mint& mint,
                     int seed_coins = 32) {
  auto genesis = trusted_dealer_coins<F>(kN, kT, seed_coins, seed);
  PipelineRun run;
  run.results.resize(kN);
  run.coins.assign(kN, {});
  Cluster cluster(kN, kT, seed);
  cluster.run(
      [&](PartyIo& io) {
        CoinPool<F> pool;
        for (auto& c : genesis[io.id()]) pool.add(std::move(c));
        const PipelineResult<F> result = mint(io, pool, batches);
        run.results[io.id()] = result;
        // Drain: expose every minted coin on the root stream, in batch
        // order — the canonical consumption order of the pipeline.
        run.coins[io.id()].assign(batches, {});
        for (unsigned b = 0; b < batches; ++b) {
          const auto& batch = result.batches[b];
          if (!batch.success) continue;
          const auto sealed =
              batch.sealed_coins(static_cast<unsigned>(io.t()));
          for (unsigned h = 0; h < kM; ++h) {
            const SealedCoin<F> coin = h < sealed.size()
                                           ? sealed[h]
                                           : SealedCoin<F>{std::nullopt, kT};
            run.coins[io.id()][b].push_back(coin_expose<F>(
                io, coin, /*instance=*/100 + b * kM + h));
          }
        }
      },
      {}, nullptr);
  run.comm = cluster.comm();
  run.stale = cluster.stale_rejections();
  return run;
}

PipelineRun run_pipeline(std::uint64_t seed, unsigned batches,
                         unsigned depth, int seed_coins = 32) {
  const Mint mint = [depth](PartyIo& io, CoinPool<F>& pool,
                            unsigned count) {
    PipelineOptions opts;
    opts.depth = depth;
    return pipelined_coin_gen<F>(io, kM, pool, count, opts);
  };
  return run_with(seed, batches, mint, seed_coins);
}

// The pipeline's schedule written out by hand, one batch at a time on the
// driving thread: batch b runs on stream 1 + b against its charge_batch
// sub-pool, and its unspent coins go back to the pool.
PipelineResult<F> serial_schedule(PartyIo& io, CoinPool<F>& pool,
                                  unsigned batches) {
  PipelineResult<F> out;
  for (unsigned b = 0; b < batches; ++b) {
    CoinPool<F> sub = charge_batch(pool);
    out.batches.push_back(coin_gen<F>(io.instance(1 + b), kM, sub));
    out.seed_coins_used += out.batches.back().seed_coins_used;
    if (!sub.empty()) pool.add_batch(sub.take_batch(sub.remaining()));
  }
  out.launched = batches;
  return out;
}

// Comparable projection of a batch outcome (CoinGenResult has no ==).
using BatchKey = std::tuple<bool, std::vector<int>, std::vector<int>, bool,
                            unsigned, unsigned>;
BatchKey batch_key(const CoinGenResult<F>& r) {
  return {r.success,        r.clique,     r.summed_dealers,
          r.qualified,      r.iterations, r.seed_coins_used};
}

void expect_runs_identical(const PipelineRun& a, const PipelineRun& b) {
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    ASSERT_EQ(a.results[i].batches.size(), b.results[i].batches.size())
        << "player " << i;
    EXPECT_EQ(a.results[i].seed_coins_used, b.results[i].seed_coins_used)
        << "player " << i;
    for (std::size_t bi = 0; bi < a.results[i].batches.size(); ++bi) {
      EXPECT_EQ(batch_key(a.results[i].batches[bi]),
                batch_key(b.results[i].batches[bi]))
          << "player " << i << " batch " << bi;
      EXPECT_EQ(a.results[i].batches[bi].coin_shares.size(),
                b.results[i].batches[bi].coin_shares.size());
      for (std::size_t h = 0; h < a.results[i].batches[bi].coin_shares.size();
           ++h) {
        EXPECT_EQ(a.results[i].batches[bi].coin_shares[h],
                  b.results[i].batches[bi].coin_shares[h])
            << "player " << i << " batch " << bi << " share " << h;
      }
    }
    EXPECT_EQ(a.coins[i], b.coins[i]) << "player " << i;
  }
  EXPECT_EQ(a.comm.messages, b.comm.messages);
  EXPECT_EQ(a.comm.bytes, b.comm.bytes);
  EXPECT_EQ(a.comm.rounds, b.comm.rounds);
}

// ---------------------------------------------------------------------
// Every depth == the hand-written schedule, bit for bit.
// ---------------------------------------------------------------------

TEST(CoinPipelineTest, EveryDepthMatchesHandWrittenSchedule) {
  // Batch outcomes, coin shares, the exposed coins and the cluster's
  // message/byte/round totals all equal the serial loop's.
  const std::uint64_t seed = 11;
  const unsigned batches = 3;
  const PipelineRun reference = run_with(seed, batches, serial_schedule);
  for (unsigned depth : {1u, 2u, 4u}) {
    SCOPED_TRACE("depth=" + std::to_string(depth));
    const PipelineRun piped = run_pipeline(seed, batches, depth);
    expect_runs_identical(reference, piped);
    EXPECT_EQ(piped.stale, 0u);
  }
}

TEST(CoinPipelineTest, Depth1AndSerialCommBitForBit) {
  // Same programs on both clusters (pipeline depth 1 vs the hand-written
  // loop, no expose drain): the cluster-level byte/message/round
  // counters of generation alone must be equal.
  const std::uint64_t seed = 12;
  const unsigned batches = 2;
  auto genesis = trusted_dealer_coins<F>(kN, kT, 32, seed);

  auto generation_comm = [&](const Mint& mint) {
    Cluster c(kN, kT, seed);
    c.run(
        [&](PartyIo& io) {
          CoinPool<F> pool;
          for (const auto& coin : genesis[io.id()]) pool.add(coin);
          (void)mint(io, pool, batches);
        },
        {}, nullptr);
    return c.comm();
  };
  const CommCounters serial_comm = generation_comm(serial_schedule);
  const CommCounters piped_comm = generation_comm(
      [](PartyIo& io, CoinPool<F>& pool, unsigned count) {
        PipelineOptions opts;
        opts.depth = 1;
        return pipelined_coin_gen<F>(io, kM, pool, count, opts);
      });
  EXPECT_GT(serial_comm.messages, 0u);
  EXPECT_EQ(serial_comm.messages, piped_comm.messages);
  EXPECT_EQ(serial_comm.bytes, piped_comm.bytes);
  EXPECT_EQ(serial_comm.rounds, piped_comm.rounds);
}

TEST(CoinPipelineTest, LeadersDoNotDependOnGenesisSize) {
  // Only the elected leader grade-casts, so each player's per-stream
  // ledger shows who led. Two runs whose genesis pools differ in length
  // (one just covering two coins per batch plus the in-flight spares,
  // one covering every full charge) must charge every batch the same
  // challenge and leader coin: equal outputs and equal ledgers.
  const unsigned batches = 12, depth = 2;
  const auto run = [&](int seed_coins) {
    auto genesis = trusted_dealer_coins<F>(kN, kT, seed_coins, 77);
    std::vector<PipelineResult<F>> results(kN);
    std::vector<std::vector<CommCounters>> sent(kN);
    Cluster cluster(kN, kT, 77);
    cluster.run(std::vector<Cluster::Program>(kN, [&](PartyIo& io) {
      CoinPool<F> pool;
      for (auto& c : genesis[io.id()]) pool.add(std::move(c));
      PipelineOptions opts;
      opts.depth = depth;
      results[io.id()] = pipelined_coin_gen<F>(io, kM, pool, batches, opts);
      for (unsigned b = 0; b < batches; ++b) {
        sent[io.id()].push_back(io.instance(opts.first_batch_id + b).sent());
      }
    }));
    return std::pair{results, sent};
  };
  const auto [short_results, short_sent] =
      run(static_cast<int>(2 * batches + (kLeaderCoins - 1) * depth + 2));
  const auto [long_results, long_sent] =
      run(static_cast<int>((1 + kLeaderCoins) * batches + 8));
  for (int i = 0; i < kN; ++i) {
    for (unsigned b = 0; b < batches; ++b) {
      SCOPED_TRACE("player " + std::to_string(i) + " batch " +
                   std::to_string(b));
      const auto& s = short_results[i].batches[b];
      const auto& l = long_results[i].batches[b];
      ASSERT_TRUE(s.success);
      ASSERT_TRUE(l.success);
      EXPECT_EQ(s.coin_shares, l.coin_shares);
      EXPECT_EQ(s.clique, l.clique);
      EXPECT_EQ(short_sent[i][b].messages, long_sent[i][b].messages);
      EXPECT_EQ(short_sent[i][b].bytes, long_sent[i][b].bytes);
    }
  }
}

TEST(CoinPipelineTest, DepthZeroIsRejected) {
  EXPECT_DEATH(run_pipeline(1, 1, /*depth=*/0), "DPRBG_CHECK");
}

// ---------------------------------------------------------------------
// Overlapped depths: correctness and unanimity.
// ---------------------------------------------------------------------

TEST(CoinPipelineTest, DepthFourCleanRunSucceedsUnanimously) {
  const std::uint64_t seed = 21;
  const unsigned batches = 6;
  const PipelineRun run = run_pipeline(seed, batches, /*depth=*/4);
  EXPECT_EQ(run.stale, 0u);
  for (int i = 0; i < kN; ++i) {
    ASSERT_EQ(run.results[i].batches.size(), batches) << "player " << i;
    EXPECT_EQ(run.results[i].successes(), batches) << "player " << i;
    for (unsigned b = 0; b < batches; ++b) {
      // Outputs agree with player 0's across every batch.
      EXPECT_EQ(batch_key(run.results[i].batches[b]),
                batch_key(run.results[0].batches[b]))
          << "player " << i << " batch " << b;
      ASSERT_EQ(run.coins[i][b].size(), kM);
      for (unsigned h = 0; h < kM; ++h) {
        ASSERT_TRUE(run.coins[i][b][h].has_value())
            << "player " << i << " batch " << b << " coin " << h;
        EXPECT_EQ(*run.coins[i][b][h], *run.coins[0][b][h])
            << "player " << i << " batch " << b << " coin " << h;
      }
    }
  }
  // Distinct batches mint distinct randomness: with 64-bit coins, any
  // collision across batches would be astronomically unlikely.
  std::set<std::uint64_t> values;
  for (unsigned b = 0; b < batches; ++b) {
    for (unsigned h = 0; h < kM; ++h) {
      values.insert(run.coins[0][b][h]->to_uint());
    }
  }
  EXPECT_EQ(values.size(), batches * kM);
}

TEST(CoinPipelineTest, DepthFourReplayIsDeterministic) {
  // Same seed, two full traced runs: batch outputs, exposed coins,
  // communication totals, and the canonicalized trace must be identical.
  // (Canonicalized: the tracer's seq order depends on wall-clock worker
  // interleaving, so events are compared as a sorted multiset.)
  const std::uint64_t seed = 33;
  const unsigned batches = 6;

  auto traced_run = [&] {
    tracer().clear();
    tracer().set_enabled(true);
    PipelineRun run = run_pipeline(seed, batches, /*depth=*/4);
    auto events = tracer().events();
    tracer().set_enabled(false);
    tracer().clear();
    return std::make_pair(std::move(run), std::move(events));
  };
  auto [run_a, events_a] = traced_run();
  auto [run_b, events_b] = traced_run();

  expect_runs_identical(run_a, run_b);

  auto canonical = [](const std::vector<TraceEvent>& events) {
    std::vector<std::string> lines;
    lines.reserve(events.size());
    for (TraceEvent ev : events) {
      ev.seq = 0;  // the only order-dependent field
      lines.push_back(to_jsonl(ev));
    }
    std::sort(lines.begin(), lines.end());
    return lines;
  };
  EXPECT_EQ(canonical(events_a), canonical(events_b));
}

TEST(CoinPipelineTest, DepthTwoMatchesDepthFourOutputs) {
  // Per-batch transcripts are depth-independent: each batch runs the
  // same protocol on the same stream with the same rng and sub-pool no
  // matter how many neighbors are in flight — none at depth 1.
  const std::uint64_t seed = 44;
  const unsigned batches = 4;
  const PipelineRun d1 = run_pipeline(seed, batches, /*depth=*/1);
  const PipelineRun d2 = run_pipeline(seed, batches, /*depth=*/2);
  const PipelineRun d4 = run_pipeline(seed, batches, /*depth=*/4);
  expect_runs_identical(d1, d2);
  expect_runs_identical(d1, d4);
}

TEST(CoinPipelineTest, DepthFourToleratesCrashFaults) {
  const std::uint64_t seed = 55;
  const unsigned batches = 4;
  auto genesis = trusted_dealer_coins<F>(kN, kT, 32, seed);
  std::vector<PipelineResult<F>> results(kN);
  Cluster cluster(kN, kT, seed);
  cluster.run(
      [&](PartyIo& io) {
        CoinPool<F> pool;
        for (auto& c : genesis[io.id()]) pool.add(std::move(c));
        PipelineOptions opts;
        opts.depth = 4;
        results[io.id()] = pipelined_coin_gen<F>(io, kM, pool, batches, opts);
      },
      {3}, nullptr);
  EXPECT_EQ(cluster.stale_rejections(), 0u);
  for (int i = 0; i < kN; ++i) {
    if (i == 3) continue;
    EXPECT_EQ(results[i].successes(), batches) << "player " << i;
    for (unsigned b = 0; b < batches; ++b) {
      EXPECT_EQ(batch_key(results[i].batches[b]),
                batch_key(results[(3 + 1) % kN].batches[b]))
          << "player " << i << " batch " << b;
      for (int member : results[i].batches[b].clique) {
        EXPECT_NE(member, 3) << "crashed dealer inside batch " << b;
      }
    }
  }
}

TEST(CoinPipelineTest, MidPipelineCrashReleasesAllParkedStreams) {
  // Regression for Cluster::drop(): the faulty player rides the first
  // rounds of every in-flight batch stream (silently) and then returns,
  // so the drop happens while several batch streams are simultaneously
  // parked at waiting == expected_. drop() must release them all —
  // waking only the first deadlocks the rest and hangs the drivers in
  // thread::join (this test hangs without the fix). A silent participant
  // delivers byte-identical inboxes to an immediate crash, so honest
  // outcomes must also match the pure-crash run bit for bit.
  const std::uint64_t seed = 77;
  const unsigned batches = 4;
  const int faulty = 3;
  auto genesis = trusted_dealer_coins<F>(kN, kT, 32, seed);

  auto run_with = [&](const Cluster::Program& adversary) {
    std::vector<PipelineResult<F>> results(kN);
    Cluster cluster(kN, kT, seed);
    cluster.run(
        [&](PartyIo& io) {
          CoinPool<F> pool;
          for (auto& c : genesis[io.id()]) pool.add(std::move(c));
          PipelineOptions opts;
          opts.depth = 4;
          results[io.id()] =
              pipelined_coin_gen<F>(io, kM, pool, batches, opts);
        },
        {faulty}, adversary);
    EXPECT_EQ(cluster.stale_rejections(), 0u);
    return results;
  };

  const auto crash = run_with(nullptr);
  const auto mid = run_with([&](PartyIo& io) {
    // Two silent rounds on each of the depth-4 batch streams (default
    // first_batch_id = 1), then crash mid-pipeline.
    std::vector<std::thread> workers;
    for (unsigned b = 0; b < batches; ++b) {
      workers.emplace_back([&io, b] {
        PartyIo& inst = io.instance(1 + b);
        inst.sync();
        inst.sync();
      });
    }
    for (auto& w : workers) w.join();
    // Let the honest workers park at their next barriers before the
    // drop. Correctness does not depend on this sleep — a worker
    // arriving after the drop fires the barrier itself — it just makes
    // the pre-fix deadlock reliable.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  });

  for (int i = 0; i < kN; ++i) {
    if (i == faulty) continue;
    ASSERT_EQ(mid[i].batches.size(), batches) << "player " << i;
    EXPECT_EQ(mid[i].successes(), batches) << "player " << i;
    for (unsigned b = 0; b < batches; ++b) {
      EXPECT_EQ(batch_key(mid[i].batches[b]), batch_key(crash[i].batches[b]))
          << "player " << i << " batch " << b;
      ASSERT_EQ(mid[i].batches[b].coin_shares.size(),
                crash[i].batches[b].coin_shares.size());
      for (std::size_t h = 0; h < mid[i].batches[b].coin_shares.size(); ++h) {
        EXPECT_EQ(mid[i].batches[b].coin_shares[h],
                  crash[i].batches[b].coin_shares[h])
            << "player " << i << " batch " << b << " share " << h;
      }
      for (int member : mid[i].batches[b].clique) {
        EXPECT_NE(member, faulty) << "crashed dealer inside batch " << b;
      }
    }
  }
}

// ---------------------------------------------------------------------
// Instance handles: isolation and accounting.
// ---------------------------------------------------------------------

TEST(CoinPipelineTest, InstanceHandlesHaveIndependentRoundsAndInboxes) {
  const int n = 3;
  Cluster cluster(n, 0, 7);
  std::vector<int> got_from(n, -1);
  std::vector<std::uint64_t> root_rounds(n), inst_rounds(n);
  cluster.run(std::vector<Cluster::Program>(n, [&](PartyIo& io) {
    PartyIo& inst = io.instance(5);
    EXPECT_EQ(inst.stream(), 5u);
    EXPECT_EQ(&io.instance(0), &io);          // 0 = self
    EXPECT_EQ(&inst.instance(5), &inst);      // own stream = self
    EXPECT_EQ(&io.instance(5), &inst);        // stable handle
    // Ring message on stream 5 only.
    const auto tag = make_tag(ProtoId::kVss, 9, 0);
    inst.send((io.id() + 1) % n, tag, {static_cast<std::uint8_t>(io.id())});
    inst.sync();
    const Msg* from_prev = inst.inbox().from((io.id() + n - 1) % n, tag);
    ASSERT_NE(from_prev, nullptr);
    got_from[io.id()] = from_prev->from;
    root_rounds[io.id()] = io.rounds();
    inst_rounds[io.id()] = inst.rounds();
    EXPECT_TRUE(io.inbox().all().empty());    // root stream untouched
  }));
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(got_from[i], (i + n - 1) % n);
    EXPECT_EQ(root_rounds[i], 0u);  // root never synced
    EXPECT_EQ(inst_rounds[i], 1u);
  }
  EXPECT_EQ(cluster.stale_rejections(), 0u);
}

TEST(CoinPipelineTest, PerPlayerCommIncludesInstanceTraffic) {
  const int n = 3;
  Cluster cluster(n, 0, 8);
  cluster.run(std::vector<Cluster::Program>(n, [&](PartyIo& io) {
    PartyIo& inst = io.instance(2);
    inst.send_all(make_tag(ProtoId::kVss, 1, 0), {0xAB, 0xCD});
    inst.sync();
  }));
  const auto per_player = cluster.per_player_comm();
  std::uint64_t messages = 0, bytes = 0;
  for (const auto& c : per_player) {
    messages += c.messages;
    bytes += c.bytes;
  }
  EXPECT_EQ(messages, cluster.comm().messages);
  EXPECT_EQ(bytes, cluster.comm().bytes);
  EXPECT_GT(messages, 0u);
}

TEST(CoinPipelineTest, InstanceRngsAreIndependentOfRootStream) {
  // The per-batch rng must not replay the root stream's randomness (a
  // batch dealing the same polynomials as the root would correlate
  // coins).
  const int n = 2;
  Cluster cluster(n, 0, 9);
  std::vector<std::uint64_t> root_draw(n), inst_draw(n), inst2_draw(n);
  cluster.run(std::vector<Cluster::Program>(n, [&](PartyIo& io) {
    root_draw[io.id()] = io.rng().next_u64();
    inst_draw[io.id()] = io.instance(1).rng().next_u64();
    inst2_draw[io.id()] = io.instance(2).rng().next_u64();
  }));
  for (int i = 0; i < n; ++i) {
    EXPECT_NE(root_draw[i], inst_draw[i]);
    EXPECT_NE(root_draw[i], inst2_draw[i]);
    EXPECT_NE(inst_draw[i], inst2_draw[i]);
  }
}

TEST(CoinPipelineTest, TraceEventsCarryBatchIds) {
  const std::uint64_t seed = 66;
  const unsigned batches = 4;
  tracer().clear();
  tracer().set_enabled(true);
  (void)run_pipeline(seed, batches, /*depth=*/4);
  const auto events = tracer().events();
  tracer().set_enabled(false);
  tracer().clear();

  std::set<std::uint32_t> coin_gen_streams;
  for (const auto& ev : events) {
    if (ev.protocol == "coin-gen" && ev.kind == TraceEventKind::kSpan) {
      coin_gen_streams.insert(ev.batch);
    }
    if (ev.protocol == "coin-expose") {
      // The drain runs on the root stream.
      continue;
    }
  }
  // Every batch's spans are stamped with its stream id (default
  // first_batch_id = 1), and nothing coin-gen runs on stream 0.
  const std::set<std::uint32_t> expected{1, 2, 3, 4};
  EXPECT_EQ(coin_gen_streams, expected);
}

}  // namespace
}  // namespace dprbg
