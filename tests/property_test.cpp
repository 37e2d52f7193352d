// Property suites: field-genericity of the protocol stack (typed tests
// over several GF(2^m)), parameterized sweeps over (n, t, seed) grids,
// and the D-PRBG bit-slicing cache.

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <tuple>
#include <vector>

#include "coin/coin_expose.h"
#include "coin/coin_gen.h"
#include "dprbg/coin_pool.h"
#include "dprbg/dprbg.h"
#include "dprbg/trusted_dealer.h"
#include "gf/gf2.h"
#include "net/cluster.h"
#include "vss/batch_vss.h"
#include "vss/vss.h"

namespace dprbg {
namespace {

// ---- Field-genericity: the whole stack works over any GF(2^m) ---------

template <typename F>
class FieldGenericTest : public ::testing::Test {};

using ProtocolFields = ::testing::Types<GF2_16, GF2_32, GF2<48>, GF2_64>;
TYPED_TEST_SUITE(FieldGenericTest, ProtocolFields);

TYPED_TEST(FieldGenericTest, VssRoundTrip) {
  using F = TypeParam;
  const int n = 7, t = 2;
  auto coins = trusted_dealer_coins<F>(n, t, 1, 1);
  Chacha dealer_rng(1, 777);
  const auto poly = Polynomial<F>::random(t, dealer_rng);
  std::vector<char> accepted(n, false);
  Cluster cluster(n, t, 1);
  cluster.run(std::vector<Cluster::Program>(n, [&](PartyIo& io) {
    std::optional<Polynomial<F>> mine;
    if (io.id() == 0) mine = poly;
    accepted[io.id()] =
        vss_share_and_verify<F>(io, 0, t, mine, coins[io.id()][0]).accepted;
  }));
  for (int i = 0; i < n; ++i) EXPECT_TRUE(accepted[i]) << i;
}

TYPED_TEST(FieldGenericTest, CoinGenAndExpose) {
  using F = TypeParam;
  const int n = 7, t = 1;
  auto genesis = trusted_dealer_coins<F>(n, t, 8, 2);
  std::vector<std::optional<F>> values(n);
  Cluster cluster(n, t, 2);
  cluster.run(std::vector<Cluster::Program>(n, [&](PartyIo& io) {
    CoinPool<F> pool;
    for (auto& c : genesis[io.id()]) pool.add(std::move(c));
    const auto result = coin_gen<F>(io, 2, pool);
    ASSERT_TRUE(result.success);
    const auto sealed = result.sealed_coins(static_cast<unsigned>(io.t()));
    values[io.id()] = coin_expose<F>(io, sealed[0], 100);
  }));
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(values[i].has_value()) << i;
    EXPECT_EQ(*values[i], *values[0]);
  }
}

TYPED_TEST(FieldGenericTest, BatchVssCatchesBadPolynomial) {
  using F = TypeParam;
  const int n = 7, t = 2;
  auto coins = trusted_dealer_coins<F>(n, t, 1, 3);
  Chacha dealer_rng(3, 777);
  std::vector<Polynomial<F>> polys;
  for (int j = 0; j < 8; ++j) {
    polys.push_back(Polynomial<F>::random(t, dealer_rng));
  }
  polys[5] = Polynomial<F>::random(t + 2, dealer_rng);
  std::vector<char> accepted(n, true);
  Cluster cluster(n, t, 3);
  cluster.run(std::vector<Cluster::Program>(n, [&](PartyIo& io) {
    PolyBlock<F> mine;
    if (io.id() == 0) mine = PolyBlock<F>::from_polys(polys);
    accepted[io.id()] =
        batch_vss<F>(io, 0, t, 8, mine, coins[io.id()][0]).accepted;
  }));
  // With k = 16 the false-accept probability is 8/65536 — allow it to be
  // observed never across this single deterministic run.
  for (int i = 0; i < n; ++i) EXPECT_FALSE(accepted[i]) << i;
}

// ---- Parameterized sweep: Coin-Gen across (n, faults, seed) ------------

class CoinGenSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(CoinGenSweep, UnanimousCoinsUnderCrashFaults) {
  using F = GF2_64;
  const auto [t, crash_param, seed] = GetParam();
  const int n = 6 * t + 1;
  const int crash_count = std::min(crash_param, t);  // stay within model
  std::vector<int> faulty;
  for (int i = 0; i < crash_count; ++i) faulty.push_back((i * 5) % n);
  const std::set<int> faulty_set(faulty.begin(), faulty.end());

  auto genesis = trusted_dealer_coins<F>(n, t, 8, 7000 + seed);
  std::vector<CoinGenResult<F>> results(n);
  std::vector<std::optional<F>> values(n);
  Cluster cluster(n, t, 7000 + seed);
  cluster.run(
      [&](PartyIo& io) {
        CoinPool<F> pool;
        for (auto& c : genesis[io.id()]) pool.add(std::move(c));
        results[io.id()] = coin_gen<F>(io, 2, pool);
        if (!results[io.id()].success) return;
        const auto sealed =
            results[io.id()].sealed_coins(static_cast<unsigned>(io.t()));
        values[io.id()] = coin_expose<F>(io, sealed[1], 100);
      },
      faulty, nullptr);

  int ref = -1;
  for (int i = 0; i < n; ++i) {
    if (faulty_set.count(i)) continue;
    ASSERT_TRUE(results[i].success) << "player " << i;
    EXPECT_GE(results[i].clique.size(),
              static_cast<std::size_t>(n - 2 * t));
    ASSERT_TRUE(values[i].has_value()) << "player " << i;
    if (ref < 0) ref = i;
    EXPECT_EQ(results[i].clique, results[ref].clique);
    EXPECT_EQ(*values[i], *values[ref]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CoinGenSweep,
    ::testing::Combine(::testing::Values(1, 2),   // t (n = 6t+1)
                       ::testing::Values(0, 1, 2),  // crashed players <= t?
                       ::testing::Values(0, 1, 2)),  // seeds
    [](const ::testing::TestParamInfo<std::tuple<int, int, int>>& info) {
      return "t" + std::to_string(std::get<0>(info.param)) + "_crash" +
             std::to_string(std::get<1>(info.param)) + "_seed" +
             std::to_string(std::get<2>(info.param));
    });

class VssSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(VssSweep, HonestAcceptCheaterReject) {
  using F = GF2_64;
  const auto [t, seed] = GetParam();
  const int n = 3 * t + 1;
  for (const bool cheat : {false, true}) {
    auto coins = trusted_dealer_coins<F>(n, t, 1, 8000 + seed + cheat);
    Chacha dealer_rng(8000 + seed + cheat, 777);
    const auto poly =
        Polynomial<F>::random(cheat ? t + 1 + seed % 3 : t, dealer_rng);
    std::vector<char> accepted(n, false);
    Cluster cluster(n, t, 8000 + seed + cheat);
    cluster.run(std::vector<Cluster::Program>(n, [&](PartyIo& io) {
      std::optional<Polynomial<F>> mine;
      if (io.id() == 0) mine = poly;
      accepted[io.id()] =
          vss_share_and_verify<F>(io, 0, t, mine, coins[io.id()][0])
              .accepted;
    }));
    for (int i = 0; i < n; ++i) {
      if (cheat && poly.degree() > static_cast<int>(t)) {
        EXPECT_FALSE(accepted[i]) << "t=" << t << " i=" << i;
      } else if (!cheat) {
        EXPECT_TRUE(accepted[i]) << "t=" << t << " i=" << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, VssSweep,
                         ::testing::Combine(::testing::Values(1, 2, 3, 5),
                                            ::testing::Values(0, 1, 2)),
                         [](const ::testing::TestParamInfo<
                             std::tuple<int, int>>& info) {
                           return "t" +
                                  std::to_string(std::get<0>(info.param)) +
                                  "_seed" +
                                  std::to_string(std::get<1>(info.param));
                         });

// ---- D-PRBG bit cache ---------------------------------------------------

TEST(BitCacheTest, SlicesKBitsPerCoin) {
  using F = GF2_64;
  const int n = 7, t = 1;
  auto genesis = trusted_dealer_coins<F>(n, t, 8, 9000);
  std::uint64_t coins_for_64_bits = 0, coins_for_64_fresh = 0;
  Cluster cluster(n, t, 9000);
  cluster.run(std::vector<Cluster::Program>(n, [&](PartyIo& io) {
    DPrbg<F>::Options opts;
    opts.batch_size = 16;
    opts.reserve = 4;
    {
      DPrbg<F> prbg(opts, genesis[io.id()]);
      for (int b = 0; b < 64; ++b) {
        ASSERT_TRUE(prbg.next_bit_cached(io).has_value());
      }
      if (io.id() == 0) coins_for_64_bits = prbg.coins_drawn();
    }
  }));
  // 64 sliced bits = exactly 1 k-ary coin (k = 64); fresh bits would cost
  // 64 coins.
  EXPECT_EQ(coins_for_64_bits, 1u);
  (void)coins_for_64_fresh;
}

TEST(BitCacheTest, CachedBitsMatchCoinBits) {
  using F = GF2_64;
  const int n = 7, t = 1;
  auto genesis = trusted_dealer_coins<F>(n, t, 8, 9001);
  std::vector<int> bits;
  F coin_value = F::zero();
  Cluster cluster(n, t, 9001);
  cluster.run(std::vector<Cluster::Program>(n, [&](PartyIo& io) {
    DPrbg<F>::Options opts;
    opts.batch_size = 16;
    opts.reserve = 4;
    DPrbg<F> prbg(opts, genesis[io.id()]);
    std::vector<int> local;
    for (int b = 0; b < 64; ++b) local.push_back(*prbg.next_bit_cached(io));
    if (io.id() == 0) bits = local;
  }));
  // Replay the same seed drawing the k-ary coin directly.
  auto genesis2 = trusted_dealer_coins<F>(n, t, 8, 9001);
  Cluster cluster2(n, t, 9001);
  cluster2.run(std::vector<Cluster::Program>(n, [&](PartyIo& io) {
    DPrbg<F>::Options opts;
    opts.batch_size = 16;
    opts.reserve = 4;
    DPrbg<F> prbg(opts, genesis2[io.id()]);
    if (io.id() == 0) {
      coin_value = *prbg.next_coin(io);
    } else {
      (void)prbg.next_coin(io);
    }
  }));
  for (int b = 0; b < 64; ++b) {
    EXPECT_EQ(bits[b], static_cast<int>((coin_value.to_uint() >> b) & 1u));
  }
}

TEST(BitCacheTest, CachedBitsBalanced) {
  using F = GF2_64;
  const int n = 7, t = 1;
  auto genesis = trusted_dealer_coins<F>(n, t, 8, 9002);
  int ones = 0;
  const int kBits = 64 * 8;
  Cluster cluster(n, t, 9002);
  cluster.run(std::vector<Cluster::Program>(n, [&](PartyIo& io) {
    DPrbg<F>::Options opts;
    opts.batch_size = 16;
    opts.reserve = 4;
    DPrbg<F> prbg(opts, genesis[io.id()]);
    int local = 0;
    for (int b = 0; b < kBits; ++b) local += *prbg.next_bit_cached(io);
    if (io.id() == 0) ones = local;
  }));
  EXPECT_NEAR(double(ones) / kBits, 0.5, 0.07);
}

}  // namespace
}  // namespace dprbg
