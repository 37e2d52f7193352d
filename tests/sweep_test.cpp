// Final coverage sweeps: dense parameter grids over the protocol stack,
// complementing the targeted tests with breadth (every cell is a full
// protocol execution on a fresh cluster).

#include <gtest/gtest.h>

#include <optional>
#include <tuple>
#include <vector>

#include "coin/bitgen.h"
#include "coin/coin_expose.h"
#include "coin/coin_gen_bc.h"
#include "dprbg/trusted_dealer.h"
#include "gf/gf2.h"
#include "gradecast/gradecast.h"
#include "net/cluster.h"
#include "vss/batch_vss.h"

namespace dprbg {
namespace {

using F = GF2_64;

// --- Batch-VSS grid: (t, M, bad position or none) ------------------------

class BatchVssGrid
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(BatchVssGrid, AcceptsGoodRejectsBad) {
  const auto [t, m, bad_pos] = GetParam();  // bad_pos = -1: honest batch
  const int n = 3 * t + 1;
  const std::uint64_t seed =
      10000 + static_cast<std::uint64_t>(t * 1000 + m * 10 + bad_pos + 1);
  auto coins = trusted_dealer_coins<F>(n, t, 1, seed);
  Chacha dealer_rng(seed, 777);
  std::vector<Polynomial<F>> polys;
  for (int j = 0; j < m; ++j) {
    polys.push_back(Polynomial<F>::random(t, dealer_rng));
  }
  if (bad_pos >= 0) {
    polys[bad_pos % m] = Polynomial<F>::random(t + 1, dealer_rng);
  }
  const bool bad_is_real =
      bad_pos >= 0 && polys[bad_pos % m].degree() > t;
  std::vector<char> accepted(n, false);
  Cluster cluster(n, t, seed);
  cluster.run(std::vector<Cluster::Program>(n, [&](PartyIo& io) {
    PolyBlock<F> mine;
    if (io.id() == 0) mine = PolyBlock<F>::from_polys(polys);
    accepted[io.id()] =
        batch_vss<F>(io, 0, t, m, mine, coins[io.id()][0]).accepted;
  }));
  for (int i = 0; i < n; ++i) {
    if (bad_is_real) {
      EXPECT_FALSE(accepted[i]) << "t=" << t << " m=" << m << " i=" << i;
    } else if (bad_pos < 0) {
      EXPECT_TRUE(accepted[i]) << "t=" << t << " m=" << m << " i=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BatchVssGrid,
    ::testing::Combine(::testing::Values(1, 2, 4),       // t
                       ::testing::Values(1, 7, 33),      // M
                       ::testing::Values(-1, 0, 3)),     // bad position
    [](const ::testing::TestParamInfo<std::tuple<int, int, int>>& info) {
      return "t" + std::to_string(std::get<0>(info.param)) + "_m" +
             std::to_string(std::get<1>(info.param)) + "_bad" +
             std::to_string(std::get<2>(info.param) + 1);
    });

// --- Bit-Gen grid: (t, M) with the dealer rotating -----------------------

class BitGenGrid : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BitGenGrid, EveryDealerPositionWorks) {
  const auto [t, m] = GetParam();
  const int n = 6 * t + 1;
  for (int dealer : {0, n / 2, n - 1}) {
    const std::uint64_t seed = 20000 + t * 100 + m + dealer;
    auto coins = trusted_dealer_coins<F>(n, t, 1, seed);
    Chacha dealer_rng(seed, 777);
    std::vector<Polynomial<F>> polys;
    for (int j = 0; j < m; ++j) {
      polys.push_back(Polynomial<F>::random(t, dealer_rng));
    }
    std::vector<char> accepted(n, false);
    Cluster cluster(n, t, seed);
    cluster.run(std::vector<Cluster::Program>(n, [&](PartyIo& io) {
      PolyBlock<F> mine;
      if (io.id() == dealer) mine = PolyBlock<F>::from_polys(polys);
      accepted[io.id()] = bit_gen_single<F>(io, dealer, m, t, mine,
                                            coins[io.id()][0])
                              .accepted();
    }));
    for (int i = 0; i < n; ++i) {
      EXPECT_TRUE(accepted[i])
          << "t=" << t << " m=" << m << " dealer=" << dealer << " i=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BitGenGrid,
    ::testing::Combine(::testing::Values(1, 2), ::testing::Values(1, 16)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return "t" + std::to_string(std::get<0>(info.param)) + "_m" +
             std::to_string(std::get<1>(info.param));
    });

// --- Grade-cast grid: n sweep with rotating sender -----------------------

class GradeCastGrid : public ::testing::TestWithParam<int> {};

TEST_P(GradeCastGrid, HonestSenderAlwaysConfidence2) {
  const int t = GetParam();
  const int n = 3 * t + 1;
  for (int sender : {0, n - 1}) {
    std::vector<GradeCastResult> results(n);
    Cluster cluster(n, t, 30000 + t + sender);
    cluster.run(std::vector<Cluster::Program>(n, [&](PartyIo& io) {
      results[io.id()] = grade_cast(
          io, sender, {static_cast<std::uint8_t>(sender), 0xEE});
    }));
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(results[i].confidence, 2)
          << "t=" << t << " sender=" << sender << " i=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, GradeCastGrid, ::testing::Values(1, 2, 4, 7),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "t" + std::to_string(info.param);
                         });

// --- Broadcast-model coin generation grid --------------------------------

class BcCoinGrid : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BcCoinGrid, UnanimousCoins) {
  const auto [t, m] = GetParam();
  const int n = 3 * t + 1;
  const std::uint64_t seed = 40000 + t * 100 + m;
  auto coins = trusted_dealer_coins<F>(n, t, 1, seed);
  std::vector<std::optional<F>> values(n);
  Cluster cluster(n, t, seed);
  cluster.run(std::vector<Cluster::Program>(n, [&](PartyIo& io) {
    const auto result = coin_gen_broadcast<F>(io, m, coins[io.id()][0]);
    ASSERT_TRUE(result.success);
    const auto sealed = result.sealed_coins(static_cast<unsigned>(io.t()));
    values[io.id()] = coin_expose<F>(io, sealed[m - 1], 77);
  }));
  for (int i = 1; i < n; ++i) {
    ASSERT_TRUE(values[i].has_value());
    EXPECT_EQ(*values[i], *values[0]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BcCoinGrid,
    ::testing::Combine(::testing::Values(1, 2, 3), ::testing::Values(1, 12)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return "t" + std::to_string(std::get<0>(info.param)) + "_m" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace dprbg
