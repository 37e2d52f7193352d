// Tests for the bootstrapped D-PRBG (Fig. 1): expansion, self-refill,
// unanimity of the produced stream, fault tolerance, seed accounting.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <set>
#include <vector>

#include "common/telemetry.h"
#include "dprbg/dprbg.h"
#include "dprbg/trusted_dealer.h"
#include "gf/gf2.h"
#include "net/cluster.h"

namespace dprbg {
namespace {

using F = GF2_64;

using Stream = std::vector<std::optional<F>>;

struct PrbgRun {
  std::vector<Stream> streams;  // [player][draw]
  std::vector<std::uint64_t> refills;
  std::vector<std::uint64_t> seed_spent;
  // One flag per player. Not vector<bool>: player threads write their
  // flags concurrently, and vector<bool> packs them into shared words.
  std::vector<std::uint8_t> exhausted;
};

PrbgRun run_prbg(int n, int t, std::uint64_t seed, int draws,
                 DPrbg<F>::Options opts, int genesis_coins,
                 const std::vector<int>& faulty = {},
                 const Cluster::Program& adversary = nullptr) {
  auto genesis = trusted_dealer_coins<F>(n, t, genesis_coins, seed);
  PrbgRun run;
  run.streams.assign(n, {});
  run.refills.assign(n, 0);
  run.seed_spent.assign(n, 0);
  run.exhausted.assign(n, 0);
  Cluster cluster(n, t, seed);
  cluster.run(
      [&](PartyIo& io) {
        DPrbg<F> prbg(opts, genesis[io.id()]);
        for (int d = 0; d < draws; ++d) {
          run.streams[io.id()].push_back(prbg.next_coin(io));
        }
        run.refills[io.id()] = prbg.refills();
        run.seed_spent[io.id()] = prbg.seed_coins_spent_refilling();
        run.exhausted[io.id()] = prbg.seed_exhausted();
      },
      faulty, adversary);
  return run;
}

TEST(DprbgTest, StreamIsUnanimous) {
  const int n = 7, t = 1, draws = 30;
  DPrbg<F>::Options opts;
  opts.batch_size = 16;
  opts.reserve = 4;
  const auto run = run_prbg(n, t, 1, draws, opts, /*genesis=*/8);
  for (int d = 0; d < draws; ++d) {
    ASSERT_TRUE(run.streams[0][d].has_value()) << "draw " << d;
    for (int i = 1; i < n; ++i) {
      ASSERT_TRUE(run.streams[i][d].has_value());
      EXPECT_EQ(*run.streams[i][d], *run.streams[0][d])
          << "player " << i << " draw " << d;
    }
  }
}

TEST(DprbgTest, ExpandsBeyondGenesisSupply) {
  // 8 genesis coins, 30 draws: impossible without the D-PRBG stretching
  // the seed — the defining property of the generator.
  const int n = 7, t = 1, draws = 30;
  DPrbg<F>::Options opts;
  opts.batch_size = 16;
  opts.reserve = 4;
  const auto run = run_prbg(n, t, 2, draws, opts, 8);
  for (int i = 0; i < n; ++i) {
    EXPECT_GE(run.refills[i], 1u) << "player " << i;
  }
  for (int d = 0; d < draws; ++d) {
    EXPECT_TRUE(run.streams[0][d].has_value());
  }
}

TEST(DprbgTest, SelfSufficientOverManyRefills) {
  // Long stream forcing several bootstrap cycles: the seed regenerates
  // itself every time (Section 1.2: "our method is self-sufficient once
  // it gets kicked off").
  const int n = 7, t = 1, draws = 120;
  DPrbg<F>::Options opts;
  opts.batch_size = 12;
  opts.reserve = 4;
  const auto run = run_prbg(n, t, 3, draws, opts, 8);
  EXPECT_GE(run.refills[0], 10u);
  for (int d = 0; d < draws; ++d) {
    ASSERT_TRUE(run.streams[0][d].has_value()) << "draw " << d;
  }
}

TEST(DprbgTest, SeedConsumptionIsConstantPerRefill) {
  // Each refill costs 1 challenge + iterations leader coins; with honest
  // players, exactly 2. The *amortized* seed cost per coin is 2/M.
  const int n = 7, t = 1, draws = 60;
  DPrbg<F>::Options opts;
  opts.batch_size = 20;
  opts.reserve = 4;
  const auto run = run_prbg(n, t, 4, draws, opts, 8);
  EXPECT_EQ(run.seed_spent[0], 2 * run.refills[0]);
}

TEST(DprbgTest, BitsAreBalanced) {
  const int n = 7, t = 1, draws = 200;
  DPrbg<F>::Options opts;
  opts.batch_size = 32;
  opts.reserve = 4;
  const auto run = run_prbg(n, t, 5, draws, opts, 8);
  int ones = 0;
  for (int d = 0; d < draws; ++d) {
    ones += coin_to_bit(*run.streams[0][d]);
  }
  EXPECT_NEAR(double(ones) / draws, 0.5, 0.1);
}

TEST(DprbgTest, KaryCoinsAreDistinct) {
  const int n = 7, t = 1, draws = 50;
  DPrbg<F>::Options opts;
  opts.batch_size = 16;
  opts.reserve = 4;
  const auto run = run_prbg(n, t, 6, draws, opts, 8);
  std::set<std::uint64_t> seen;
  for (int d = 0; d < draws; ++d) {
    seen.insert(run.streams[0][d]->to_uint());
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(draws));
}

TEST(DprbgTest, SurvivesCrashFaults) {
  const int n = 13, t = 2, draws = 25;
  DPrbg<F>::Options opts;
  opts.batch_size = 12;
  opts.reserve = 4;
  const auto run = run_prbg(n, t, 7, draws, opts, 8, {3, 9}, nullptr);
  for (int d = 0; d < draws; ++d) {
    std::optional<F> ref;
    for (int i = 0; i < n; ++i) {
      if (i == 3 || i == 9) continue;
      ASSERT_TRUE(run.streams[i][d].has_value())
          << "player " << i << " draw " << d;
      if (!ref) ref = *run.streams[i][d];
      EXPECT_EQ(*run.streams[i][d], *ref);
    }
  }
}

TEST(DprbgTest, DifferentSeedsDifferentStreams) {
  DPrbg<F>::Options opts;
  opts.batch_size = 8;
  opts.reserve = 3;
  const auto a = run_prbg(7, 1, 100, 10, opts, 8);
  const auto b = run_prbg(7, 1, 101, 10, opts, 8);
  int equal = 0;
  for (int d = 0; d < 10; ++d) {
    if (*a.streams[0][d] == *b.streams[0][d]) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(DprbgTest, ReplayIsDeterministic) {
  DPrbg<F>::Options opts;
  opts.batch_size = 8;
  opts.reserve = 3;
  const auto a = run_prbg(7, 1, 50, 12, opts, 8);
  const auto b = run_prbg(7, 1, 50, 12, opts, 8);
  for (int d = 0; d < 12; ++d) {
    EXPECT_EQ(*a.streams[0][d], *b.streams[0][d]);
  }
}

TEST(DprbgTest, PipelinedRefillStreamIsUnanimous) {
  // pipeline_depth = 2 routes refills through pipelined_coin_gen
  // (coin/coin_pipeline.h): each pass overlaps two batches on distinct
  // round streams. The drawn stream must stay unanimous and the
  // generator must still out-produce its genesis supply.
  const int n = 7, t = 1, draws = 40;
  DPrbg<F>::Options opts;
  opts.batch_size = 8;
  opts.reserve = 4;
  opts.pipeline_depth = 2;
  const auto run = run_prbg(n, t, 7, draws, opts, /*genesis=*/16);
  for (int d = 0; d < draws; ++d) {
    ASSERT_TRUE(run.streams[0][d].has_value()) << "draw " << d;
    for (int i = 1; i < n; ++i) {
      ASSERT_TRUE(run.streams[i][d].has_value());
      EXPECT_EQ(*run.streams[i][d], *run.streams[0][d])
          << "player " << i << " draw " << d;
    }
  }
  for (int i = 0; i < n; ++i) {
    EXPECT_GE(run.refills[i], 2u) << "player " << i;  // 2 batches/pass
    EXPECT_EQ(run.refills[i], run.refills[0]);
    EXPECT_EQ(run.seed_spent[i], run.seed_spent[0]);
  }
}

TEST(DprbgTest, PipelinedReplayIsDeterministic) {
  DPrbg<F>::Options opts;
  opts.batch_size = 8;
  opts.reserve = 3;
  opts.pipeline_depth = 2;
  const auto a = run_prbg(7, 1, 50, 20, opts, 16);
  const auto b = run_prbg(7, 1, 50, 20, opts, 16);
  for (int d = 0; d < 20; ++d) {
    ASSERT_TRUE(a.streams[0][d].has_value());
    EXPECT_EQ(*a.streams[0][d], *b.streams[0][d]);
  }
}

TEST(DprbgTest, LeaderDrawBudgetIsSmallestWithin2ToMinus64) {
  EXPECT_EQ(leader_draw_budget(7, 1), 23u);
  EXPECT_EQ(leader_draw_budget(13, 2), 24u);
  EXPECT_EQ(leader_draw_budget(19, 3), 25u);
  // (1/4)^32 is exactly 2^-64: the boundary itself qualifies.
  EXPECT_EQ(leader_draw_budget(4, 1), 32u);
  EXPECT_EQ(leader_draw_budget(8, 1), 22u);  // (1/8)^21 = 2^-63
  // No faulty player can be drawn: one draw always suffices.
  EXPECT_EQ(leader_draw_budget(7, 0), 1u);
}

TEST(DprbgTest, DefaultReserveSurvivesCrashedLeaderRuns) {
  // Player 6 crashed, M=4: a refill every ~2 draws. Under the former
  // fixed reserve of 6, five straight leader draws on player 6 emptied
  // the pool at draw 320 of this seed and every later draw was nullopt.
  // The derived reserve covers 23 such draws.
  const int n = 7, t = 1, draws = 1000;
  DPrbg<F>::Options opts;
  opts.batch_size = 4;
  const auto run = run_prbg(n, t, 52, draws, opts, 32, {6}, nullptr);
  for (int d = 0; d < draws; ++d) {
    ASSERT_TRUE(run.streams[0][d].has_value()) << "draw " << d;
    for (int i = 1; i < 6; ++i) {
      EXPECT_EQ(run.streams[i][d], run.streams[0][d])
          << "player " << i << " draw " << d;
    }
  }
  for (int i = 0; i < 6; ++i) EXPECT_FALSE(run.exhausted[i]);
}

TEST(DprbgTest, ExplicitSmallReserveReachesSeedExhaustion) {
  // reserve = 3 leaves a refill two leader draws; with player 6 crashed
  // both land on it with probability 1/49, and then the pool is empty.
  // Exhaustion is terminal, unanimous and counted once per player.
  const int n = 7, t = 1, draws = 2300, dies_at = 2256;
  DPrbg<F>::Options opts;
  opts.batch_size = 64;
  opts.reserve = 3;
  metrics().reset();
  set_telemetry_enabled(true);
  const auto run = run_prbg(n, t, 99, draws, opts, 32, {6}, nullptr);
  const MetricsSnapshot snap = metrics().snapshot();
  set_telemetry_enabled(false);
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(run.exhausted[i]) << "player " << i;
    for (int d = 0; d < draws; ++d) {
      ASSERT_EQ(run.streams[i][d].has_value(), d < dies_at)
          << "player " << i << " draw " << d;
    }
    EXPECT_EQ(run.streams[i], run.streams[0]) << "player " << i;
  }
  EXPECT_EQ(snap.sum_values("dprbg_seed_exhausted_total"), 6);
}

}  // namespace
}  // namespace dprbg
