// Unit tests for CoinPool, trusted-dealer genesis, metrics plumbing, and
// the "random access to the bits" claim of Section 1.4.

#include <gtest/gtest.h>

#include <optional>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "coin/coin_expose.h"
#include "coin/coin_gen.h"
#include "dprbg/coin_pool.h"
#include "dprbg/trusted_dealer.h"
#include "gf/gf2.h"
#include "net/cluster.h"

namespace dprbg {
namespace {

using F = GF2_64;

TEST(CoinPoolTest, FifoOrder) {
  CoinPool<F> pool;
  for (std::uint64_t v = 0; v < 5; ++v) {
    pool.add(SealedCoin<F>{F::from_uint(v), 2});
  }
  EXPECT_EQ(pool.remaining(), 5u);
  for (std::uint64_t v = 0; v < 5; ++v) {
    const auto c = pool.take();
    EXPECT_EQ(c.share->to_uint(), v);
  }
  EXPECT_TRUE(pool.empty());
}

TEST(CoinPoolTest, ConsumedCounterMonotone) {
  CoinPool<F> pool;
  pool.add(SealedCoin<F>{F::one(), 1});
  pool.add(SealedCoin<F>{F::one(), 1});
  EXPECT_EQ(pool.consumed(), 0u);
  (void)pool.take();
  EXPECT_EQ(pool.consumed(), 1u);
  pool.add(SealedCoin<F>{F::one(), 1});
  (void)pool.take();
  (void)pool.take();
  EXPECT_EQ(pool.consumed(), 3u);
  EXPECT_TRUE(pool.empty());
}

TEST(CoinPoolTest, TakeBatchEquivalentToRepeatedTake) {
  CoinPool<F> a;
  CoinPool<F> b;
  for (std::uint64_t v = 0; v < 8; ++v) {
    a.add(SealedCoin<F>{F::from_uint(v), 2});
    b.add(SealedCoin<F>{F::from_uint(v), 2});
  }
  const auto bulk = a.take_batch(5);
  ASSERT_EQ(bulk.size(), 5u);
  for (std::uint64_t v = 0; v < 5; ++v) {
    EXPECT_EQ(bulk[v].share->to_uint(), v);
    EXPECT_EQ(b.take().share->to_uint(), v);
  }
  EXPECT_EQ(a.remaining(), b.remaining());
  EXPECT_EQ(a.consumed(), b.consumed());
  EXPECT_EQ(a.consumed(), 5u);
  // The survivors are the same in both pools, in the same order.
  while (!a.empty()) {
    EXPECT_EQ(a.take().share->to_uint(), b.take().share->to_uint());
  }
}

TEST(CoinPoolTest, TakeBatchWholePoolAndEmpty) {
  CoinPool<F> pool;
  EXPECT_TRUE(pool.take_batch(0).empty());
  pool.add(SealedCoin<F>{F::one(), 1});
  pool.add(SealedCoin<F>{F::zero(), 1});
  const auto all = pool.take_batch(2);
  EXPECT_EQ(all.size(), 2u);
  EXPECT_TRUE(pool.empty());
  EXPECT_EQ(pool.consumed(), 2u);
}

TEST(CoinPoolTest, AddBatchAppendsInOrder) {
  CoinPool<F> pool;
  pool.add(SealedCoin<F>{F::from_uint(100), 1});
  std::vector<SealedCoin<F>> fresh;
  for (std::uint64_t v = 0; v < 3; ++v) {
    fresh.push_back(SealedCoin<F>{F::from_uint(v), 1});
  }
  pool.add_batch(std::move(fresh));
  EXPECT_EQ(pool.remaining(), 4u);
  EXPECT_EQ(pool.take().share->to_uint(), 100u);
  for (std::uint64_t v = 0; v < 3; ++v) {
    EXPECT_EQ(pool.take().share->to_uint(), v);
  }
}

TEST(CoinPoolTest, TakeBatchThenReturnKeepsConsumedAligned) {
  // The pipelined driver charges a batch up front and returns unspent
  // coins; consumed() must keep advancing monotonically (it doubles as
  // the cross-player Coin-Expose instance id and may never rewind).
  CoinPool<F> pool;
  for (std::uint64_t v = 0; v < 6; ++v) {
    pool.add(SealedCoin<F>{F::from_uint(v), 1});
  }
  auto charge = pool.take_batch(4);
  EXPECT_EQ(pool.consumed(), 4u);
  // Two coins spent; return the rest.
  charge.erase(charge.begin(), charge.begin() + 2);
  pool.add_batch(std::move(charge));
  EXPECT_EQ(pool.remaining(), 4u);
  EXPECT_EQ(pool.consumed(), 4u);
  EXPECT_EQ(pool.take().share->to_uint(), 4u);  // original tail first
  EXPECT_EQ(pool.consumed(), 5u);
}

TEST(CoinPoolTest, TakeBackBatchThenReturnRestoresPool) {
  // The pipeline charges spare leader coins from the back; returning them
  // unspent puts the pool back as it was, while consumed() still only
  // grows.
  CoinPool<F> pool;
  for (std::uint64_t v = 0; v < 6; ++v) {
    pool.add(SealedCoin<F>{F::from_uint(v), 1});
  }
  auto spares = pool.take_back_batch(2);
  ASSERT_EQ(spares.size(), 2u);
  EXPECT_EQ(spares[0].share->to_uint(), 4u);
  EXPECT_EQ(spares[1].share->to_uint(), 5u);
  EXPECT_EQ(pool.consumed(), 2u);
  pool.add_batch(std::move(spares));
  ASSERT_EQ(pool.remaining(), 6u);
  for (std::uint64_t v = 0; v < 6; ++v) {
    EXPECT_EQ(pool.coins()[v].share->to_uint(), v);
  }
  EXPECT_TRUE(pool.take_back_batch(0).empty());
}

TEST(TrustedDealerTest, SharesLieOnDegreeTPolynomial) {
  const int n = 9;
  const unsigned t = 2;
  auto coins = trusted_dealer_coins<F>(n, t, 3, 1);
  for (int c = 0; c < 3; ++c) {
    std::vector<PointValue<F>> pts;
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(coins[i][c].share.has_value());
      EXPECT_EQ(coins[i][c].degree, t);
      pts.push_back({eval_point<F>(i), *coins[i][c].share});
    }
    EXPECT_TRUE(is_degree_at_most<F>(pts, t));
  }
}

TEST(TrustedDealerTest, DeterministicUnderSeed) {
  const auto a = trusted_dealer_coins<F>(5, 1, 2, 99);
  const auto b = trusted_dealer_coins<F>(5, 1, 2, 99);
  for (int i = 0; i < 5; ++i) {
    for (int c = 0; c < 2; ++c) {
      EXPECT_EQ(*a[i][c].share, *b[i][c].share);
    }
  }
}

TEST(TrustedDealerTest, DistinctSeedsDistinctCoins) {
  const auto a = trusted_dealer_coins<F>(5, 1, 1, 1);
  const auto b = trusted_dealer_coins<F>(5, 1, 1, 2);
  EXPECT_NE(*a[0][0].share, *b[0][0].share);
}

TEST(MetricsTest, ScopeCapturesDeltas) {
  const auto a = F::from_uint(3), b = F::from_uint(5);
  MetricsScope scope;
  auto c = a * b;
  c = c + a;
  const FieldCounters delta = scope.delta();
  EXPECT_EQ(delta.muls, 1u);
  EXPECT_EQ(delta.adds, 1u);
}

TEST(MetricsTest, CountersAreThreadLocal) {
  const FieldCounters before = field_counters();
  std::thread worker([] {
    const auto a = F::from_uint(3) * F::from_uint(5);
    (void)a;
  });
  worker.join();
  // The worker's multiplication never leaks into this thread's counters.
  EXPECT_EQ(field_counters().muls, before.muls);
}

TEST(RandomAccessTest, CoinsExposableInAnyOrder) {
  // Section 1.4: "our scheme also provides 'random access' to the bits."
  // Expose a minted batch in a scrambled order and in natural order; the
  // values per index must coincide.
  const int n = 7, t = 1;
  const unsigned m = 6;
  const std::vector<unsigned> order = {4, 0, 5, 2, 1, 3};

  auto run_with_order = [&](const std::vector<unsigned>& idx) {
    auto genesis = trusted_dealer_coins<F>(n, t, 8, 77);
    std::vector<F> values(m);
    Cluster cluster(n, t, 77);
    cluster.run(std::vector<Cluster::Program>(n, [&](PartyIo& io) {
      CoinPool<F> pool;
      for (auto& c : genesis[io.id()]) pool.add(std::move(c));
      const auto result = coin_gen<F>(io, m, pool);
      ASSERT_TRUE(result.success);
      const auto sealed =
          result.sealed_coins(static_cast<unsigned>(io.t()));
      for (unsigned h : idx) {
        const auto v = coin_expose<F>(io, sealed[h], 100 + h);
        ASSERT_TRUE(v.has_value());
        if (io.id() == 0) values[h] = *v;
      }
    }));
    return values;
  };

  std::vector<unsigned> natural(m);
  for (unsigned h = 0; h < m; ++h) natural[h] = h;
  const auto scrambled_values = run_with_order(order);
  const auto natural_values = run_with_order(natural);
  for (unsigned h = 0; h < m; ++h) {
    EXPECT_EQ(scrambled_values[h], natural_values[h]) << "coin " << h;
  }
}

TEST(RandomAccessTest, PartialExposureLeavesRestSealed) {
  // Exposing a prefix of a batch must not help predict the rest (the
  // blinding ablation proves the linear-combination channel is closed;
  // here: the adversary's t shares of an unexposed coin remain consistent
  // with every value even after other coins were exposed).
  const int n = 7, t = 1;
  auto genesis = trusted_dealer_coins<F>(n, t, 8, 78);
  std::vector<CoinGenResult<F>> results(n);
  Cluster cluster(n, t, 78);
  cluster.run(std::vector<Cluster::Program>(n, [&](PartyIo& io) {
    CoinPool<F> pool;
    for (auto& c : genesis[io.id()]) pool.add(std::move(c));
    results[io.id()] = coin_gen<F>(io, 4, pool);
    ASSERT_TRUE(results[io.id()].success);
    const auto sealed =
        results[io.id()].sealed_coins(static_cast<unsigned>(io.t()));
    // Expose coins 0..2, keep coin 3 sealed.
    for (unsigned h = 0; h < 3; ++h) {
      (void)coin_expose<F>(io, sealed[h], 100 + h);
    }
  }));
  // Adversary = player 0 (t = 1): its single share of coin 3's polynomial
  // is consistent with any value.
  for (std::uint64_t candidate : {0ull, 42ull}) {
    std::vector<PointValue<F>> pts = {
        {eval_point<F>(0), results[0].coin_shares[3]},
        {F::zero(), F::from_uint(candidate)},
    };
    EXPECT_LE(lagrange_interpolate<F>(pts).degree(), static_cast<int>(t));
  }
}

}  // namespace
}  // namespace dprbg
