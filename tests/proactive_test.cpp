// Tests for pro-active refresh of sealed coins (Section 1.2's mobile-
// adversary application; DESIGN.md substrate table).

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "coin/coin_expose.h"
#include "dprbg/proactive.h"
#include "dprbg/trusted_dealer.h"
#include "gf/gf2.h"
#include "net/cluster.h"

namespace dprbg {
namespace {

using F = GF2_64;

TEST(ProactiveTest, ZeroSecretPolynomialShape) {
  Chacha rng(1);
  const auto block = random_zero_secrets<F>(50, 4, rng);
  ASSERT_EQ(block.size(), 50u);
  for (std::size_t j = 0; j < block.size(); ++j) {
    const auto p = block.poly(j);
    EXPECT_TRUE(p(F::zero()).is_zero());
    EXPECT_LE(p.degree(), 4);
    EXPECT_FALSE(p.is_zero());
  }
}

TEST(ProactiveTest, RefreshPreservesCoinValues) {
  const int n = 7, t = 2;
  const int kCoins = 4;
  auto coins = trusted_dealer_coins<F>(n, t, kCoins, 2);
  auto challenge = trusted_dealer_coins<F>(n, t, 1, 3);

  std::vector<std::vector<std::optional<F>>> before(n), after(n);
  Cluster cluster(n, t, 2);
  cluster.run(std::vector<Cluster::Program>(n, [&](PartyIo& io) {
    // Expose a snapshot... we cannot expose before refreshing (that would
    // unseal them); instead refresh first, expose the refreshed coins,
    // then compare with an offline reconstruction of the originals.
    const auto result = proactive_refresh<F>(
        io, std::span<const SealedCoin<F>>(coins[io.id()]),
        challenge[io.id()][0]);
    ASSERT_TRUE(result.success);
    for (int h = 0; h < kCoins; ++h) {
      after[io.id()].push_back(
          coin_expose<F>(io, result.coins[h], 10 + h));
    }
  }));
  // Offline ground truth of the original coins.
  for (int h = 0; h < kCoins; ++h) {
    std::vector<PointValue<F>> pts;
    for (int i = 0; i < n; ++i) {
      pts.push_back({eval_point<F>(i), *coins[i][h].share});
    }
    const F original = *reconstruct_secret<F>(pts, t, 0);
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(after[i][h].has_value()) << i << "," << h;
      EXPECT_EQ(*after[i][h], original) << i << "," << h;
    }
  }
}

TEST(ProactiveTest, SharesActuallyChange) {
  // The refresh must re-randomize: every player's share should differ
  // from its pre-refresh value (same value coincidence has prob 2^-64).
  const int n = 7, t = 2;
  auto coins = trusted_dealer_coins<F>(n, t, 2, 4);
  auto challenge = trusted_dealer_coins<F>(n, t, 1, 5);
  std::vector<std::vector<F>> new_shares(n);
  Cluster cluster(n, t, 4);
  cluster.run(std::vector<Cluster::Program>(n, [&](PartyIo& io) {
    const auto result = proactive_refresh<F>(
        io, std::span<const SealedCoin<F>>(coins[io.id()]),
        challenge[io.id()][0]);
    ASSERT_TRUE(result.success);
    for (const auto& c : result.coins) {
      new_shares[io.id()].push_back(*c.share);
    }
  }));
  for (int i = 0; i < n; ++i) {
    for (int h = 0; h < 2; ++h) {
      EXPECT_NE(new_shares[i][h], *coins[i][h].share) << i << "," << h;
    }
  }
}

TEST(ProactiveTest, OldSharesUselessAfterRefresh) {
  // The mobile-adversary property: t old shares + t NEW shares from a
  // different corruption set stay below the reconstruction threshold —
  // the combined 2t points do not pin down the coin because they lie on
  // different polynomials. Constructively: the old shares are consistent
  // with every candidate value of the *new* sharing's polynomial? The
  // meaningful check: reconstruction from t old + t new shares fails
  // (Berlekamp-Welch finds no degree-t polynomial through >= 3t+1 ...),
  // here simply: mixing old and new shares yields a decoding that does
  // NOT equal the coin unless enough consistent new shares are present.
  const int n = 7, t = 2;
  auto coins = trusted_dealer_coins<F>(n, t, 1, 6);
  auto challenge = trusted_dealer_coins<F>(n, t, 1, 7);
  std::vector<std::optional<F>> new_share(n);
  Cluster cluster(n, t, 6);
  cluster.run(std::vector<Cluster::Program>(n, [&](PartyIo& io) {
    const auto result = proactive_refresh<F>(
        io, std::span<const SealedCoin<F>>(coins[io.id()]),
        challenge[io.id()][0]);
    ASSERT_TRUE(result.success);
    new_share[io.id()] = *result.coins[0].share;
  }));
  // Adversary epoch 1 corrupted {0,1} (old shares), epoch 2 corrupted
  // {2,3} (new shares). 4 = 2t points, mixed generations.
  std::vector<PointValue<F>> mixed = {
      {eval_point<F>(0), *coins[0][0].share},
      {eval_point<F>(1), *coins[1][0].share},
      {eval_point<F>(2), *new_share[2]},
      {eval_point<F>(3), *new_share[3]},
  };
  // Ground truth.
  std::vector<PointValue<F>> pts;
  for (int i = 0; i < n; ++i) {
    pts.push_back({eval_point<F>(i), *coins[i][0].share});
  }
  const F truth = *reconstruct_secret<F>(pts, t, 0);
  // The mixed points interpolate to a cubic (2t+... 4 points define a
  // unique degree-3 polynomial); its value at 0 is NOT the coin — the
  // adversary learned nothing actionable.
  const auto f = lagrange_interpolate<F>(mixed);
  EXPECT_NE(f(F::zero()), truth);
  // And each generation alone (t points) is information-theoretically
  // consistent with every candidate coin value.
  for (std::uint64_t candidate : {0ull, 999ull}) {
    std::vector<PointValue<F>> old_pts = {mixed[0], mixed[1],
                                          {F::zero(), F::from_uint(candidate)}};
    EXPECT_LE(lagrange_interpolate<F>(old_pts).degree(),
              static_cast<int>(t));
  }
}

TEST(ProactiveTest, CheatingRefresherExcluded) {
  // A refresher dealing NON-zero-secret polynomials (which would *shift*
  // the coin values) must be rejected by the F(0) = 0 check.
  const int n = 7, t = 2;
  auto coins = trusted_dealer_coins<F>(n, t, 2, 8);
  auto challenge = trusted_dealer_coins<F>(n, t, 1, 9);
  std::vector<RefreshResult<F>> results(n);
  Cluster cluster(n, t, 8);
  cluster.run(
      [&](PartyIo& io) {
        results[io.id()] = proactive_refresh<F>(
            io, std::span<const SealedCoin<F>>(coins[io.id()]),
            challenge[io.id()][0]);
      },
      {1},
      [&](PartyIo& io) {
        // Deals valid degree-t but NONZERO-secret polynomials (a shift
        // attack on the coin values).
        const auto row_tag = make_tag(ProtoId::kBitGen, 0, 0);
        std::vector<Polynomial<F>> polys;
        for (unsigned j = 0; j < 3; ++j) {
          polys.push_back(Polynomial<F>::random(io.t(), io.rng()));
        }
        for (int i = 0; i < io.n(); ++i) {
          ByteWriter w;
          for (const auto& f : polys) write_elem(w, f(eval_point<F>(i)));
          io.send(i, row_tag, std::move(w).take());
        }
        (void)coin_expose<F>(io, challenge[io.id()][0], 0);
        // Honest-looking combination for its own instance.
        io.sync();
      });
  for (int i = 0; i < n; ++i) {
    if (i == 1) continue;
    ASSERT_TRUE(results[i].success) << i;
    for (int d : results[i].accepted_dealers) EXPECT_NE(d, 1) << i;
  }
}

TEST(ProactiveTest, RepeatedRefreshesStayCorrect) {
  // Refresh the same coin several epochs in a row, then expose: value
  // unchanged (the Section 1.2 "kept alive" source).
  const int n = 7, t = 2;
  auto coins = trusted_dealer_coins<F>(n, t, 1, 10);
  auto challenges = trusted_dealer_coins<F>(n, t, 4, 11);
  std::vector<PointValue<F>> pts;
  for (int i = 0; i < n; ++i) {
    pts.push_back({eval_point<F>(i), *coins[i][0].share});
  }
  const F truth = *reconstruct_secret<F>(pts, t, 0);

  std::vector<std::optional<F>> finals(n);
  Cluster cluster(n, t, 10);
  cluster.run(std::vector<Cluster::Program>(n, [&](PartyIo& io) {
    std::vector<SealedCoin<F>> mine = coins[io.id()];
    for (int epoch = 0; epoch < 4; ++epoch) {
      const auto result = proactive_refresh<F>(
          io, std::span<const SealedCoin<F>>(mine),
          challenges[io.id()][epoch], /*instance=*/epoch);
      ASSERT_TRUE(result.success);
      mine = result.coins;
    }
    finals[io.id()] = coin_expose<F>(io, mine[0], 99);
  }));
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(finals[i].has_value());
    EXPECT_EQ(*finals[i], truth);
  }
}

}  // namespace
}  // namespace dprbg
