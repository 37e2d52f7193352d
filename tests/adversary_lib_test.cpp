// Tests driving the protocol stack with the reusable adversary library
// (net/adversary.h): every standard behaviour against the D-PRBG.

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "coin/coin_gen.h"
#include "dprbg/coin_pool.h"
#include "dprbg/dprbg.h"
#include "dprbg/trusted_dealer.h"
#include "gf/gf2.h"
#include "net/adversary.h"
#include "net/cluster.h"

namespace dprbg {
namespace {

using F = GF2_64;

// Runs a D-PRBG stream with the given adversary on players {2, 9} and
// asserts honest unanimity.
void expect_stream_survives(const Cluster::Program& adversary,
                            std::uint64_t seed) {
  const int n = 13, t = 2;
  const int kDraws = 12;
  auto genesis = trusted_dealer_coins<F>(n, t, 8, seed);
  std::vector<std::vector<std::optional<F>>> streams(n);
  Cluster cluster(n, t, seed);
  cluster.run(
      [&](PartyIo& io) {
        DPrbg<F>::Options opts;
        opts.batch_size = 10;
        opts.reserve = 4;
        DPrbg<F> prbg(opts, genesis[io.id()]);
        for (int d = 0; d < kDraws; ++d) {
          streams[io.id()].push_back(prbg.next_coin(io));
        }
      },
      {2, 9}, adversary);
  for (int d = 0; d < kDraws; ++d) {
    std::optional<F> ref;
    for (int i = 0; i < n; ++i) {
      if (i == 2 || i == 9) continue;
      ASSERT_TRUE(streams[i][d].has_value())
          << "player " << i << " draw " << d;
      if (!ref) ref = *streams[i][d];
      EXPECT_EQ(*streams[i][d], *ref) << "player " << i << " draw " << d;
    }
  }
}

TEST(AdversaryLibTest, CrashAdversary) {
  expect_stream_survives(crash_adversary(), 1);
}

TEST(AdversaryLibTest, NoiseAdversary) {
  expect_stream_survives(noise_adversary(/*rounds=*/150), 2);
}

TEST(AdversaryLibTest, ReplayAdversary) {
  expect_stream_survives(replay_adversary(/*rounds=*/150), 3);
}

TEST(AdversaryLibTest, SpamAdversary) {
  expect_stream_survives(
      spam_adversary(/*victim=*/0, make_tag(ProtoId::kCoinExpose, 0, 0),
                     /*rounds=*/150),
      4);
}

TEST(AdversaryLibTest, SleeperRunsPhasesThenCrashes) {
  const int n = 4, t = 1;
  const std::uint32_t tag = make_tag(ProtoId::kApp, 0, 0);
  std::vector<int> seen(n, 0);
  PhaseList phases = {
      [&](PartyIo& io) {
        io.send_all(tag, {1});
        io.sync();
      },
      [&](PartyIo& io) {
        io.send_all(tag, {2});
        io.sync();
      },
  };
  Cluster cluster(n, t, 5);
  cluster.run(
      [&](PartyIo& io) {
        for (int round = 0; round < 3; ++round) {
          io.send_all(tag, {9});
          const Inbox& in = io.sync();
          if (io.id() == 0 && in.from(3, tag) != nullptr) {
            ++seen[round];
          }
        }
      },
      {3}, sleeper_adversary(std::move(phases), /*phases_to_run=*/1));
  // The sleeper participated in round 0 only.
  EXPECT_EQ(seen[0], 1);
  EXPECT_EQ(seen[1], 0);
  EXPECT_EQ(seen[2], 0);
}

TEST(AdversaryLibTest, SilentAdversaryIsOmissionNotCrash) {
  // Omission faults (alive in every barrier, never sending) must be no
  // worse than crashes for the honest players.
  expect_stream_survives(silent_adversary(/*rounds=*/150), 7);
}

TEST(AdversaryLibTest, CoinGenDealerCrashesMidProtocol) {
  // A dealer that runs Coin-Gen's steps 1-3 (its own Bit-Gen instance,
  // honestly) and then dies *before* the grade-cast of cliques — the
  // nastiest crash point: its instance decodes everywhere and may appear
  // in honest cliques, but it never announces a clique of its own and
  // never votes. Honest players must still agree, and with only this one
  // fault (t = 1) the run must succeed.
  const int n = 7;
  const unsigned t = 1;
  const unsigned m = 2;
  const int crasher = 5;
  const std::uint64_t seed = 11;
  auto genesis = trusted_dealer_coins<F>(n, t, 8, seed);
  std::vector<CoinGenResult<F>> results(n);
  std::vector<std::vector<std::optional<F>>> coins(
      n, std::vector<std::optional<F>>(m));

  PhaseList dealer_phases = {[&](PartyIo& io) {
    // Steps 1-3 of coin_gen, verbatim: challenge + honest Bit-Gen.
    CoinPool<F> pool;
    for (auto& c : genesis[io.id()]) pool.add(std::move(c));
    const SealedCoin<F> challenge = pool.take();
    const unsigned m_total = m + 1;
    const auto my_polys = PolyBlock<F>::random(m_total, t, io.rng());
    bit_gen_all<F>(io, my_polys, m_total, t, challenge, /*instance=*/0);
    // ...and crash here, before grade_cast_all.
  }};

  Cluster cluster(n, static_cast<int>(t), seed);
  cluster.run(
      [&](PartyIo& io) {
        CoinPool<F> pool;
        for (auto& c : genesis[io.id()]) pool.add(std::move(c));
        results[io.id()] = coin_gen<F>(io, m, pool);
        if (!results[io.id()].success) return;
        const auto sealed = results[io.id()].sealed_coins(t);
        for (unsigned h = 0; h < m; ++h) {
          const SealedCoin<F> coin = h < sealed.size()
                                         ? sealed[h]
                                         : SealedCoin<F>{std::nullopt, t};
          coins[io.id()][h] = coin_expose<F>(io, coin, /*instance=*/100 + h);
        }
      },
      {crasher}, sleeper_adversary(std::move(dealer_phases), 1));

  int ref = crasher == 0 ? 1 : 0;
  EXPECT_TRUE(results[ref].success);
  for (int i = 0; i < n; ++i) {
    if (i == crasher) continue;
    EXPECT_EQ(results[i].success, results[ref].success) << "player " << i;
    EXPECT_EQ(results[i].clique, results[ref].clique) << "player " << i;
    EXPECT_EQ(results[i].summed_dealers, results[ref].summed_dealers)
        << "player " << i;
    for (unsigned h = 0; h < m; ++h) {
      ASSERT_TRUE(coins[i][h].has_value()) << "player " << i << " coin " << h;
      EXPECT_EQ(*coins[i][h], *coins[ref][h]) << "player " << i;
    }
  }
}

TEST(AdversaryLibTest, NoiseDoesNotCorruptMetricsBeyondBytes) {
  // The adversary's traffic is visible in the cluster's comm counters
  // (bytes rise) but never in honest players' field-op counters.
  const int n = 7, t = 1;
  Cluster quiet(n, t, 6);
  quiet.run(std::vector<Cluster::Program>(n, [](PartyIo& io) {
    for (int r = 0; r < 10; ++r) io.sync();
  }));
  const auto quiet_bytes = quiet.comm().bytes;

  Cluster noisy(n, t, 6);
  noisy.run(
      [&](PartyIo& io) {
        for (int r = 0; r < 10; ++r) io.sync();
      },
      {0}, noise_adversary(10));
  EXPECT_GT(noisy.comm().bytes, quiet_bytes);
  for (int i = 1; i < n; ++i) {
    EXPECT_EQ(noisy.per_player_field_ops()[i].muls, 0u);
  }
}

}  // namespace
}  // namespace dprbg
