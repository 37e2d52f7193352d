// Tests for Coin-Expose (Fig. 6) and trusted-dealer genesis coins.

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <vector>

#include "coin/coin_expose.h"
#include "coin/sealed_coin.h"
#include "dprbg/trusted_dealer.h"
#include "gf/gf2.h"
#include "net/cluster.h"
#include "rng/chacha.h"

namespace dprbg {
namespace {

using F = GF2_64;

struct ExposeRun {
  std::vector<std::optional<F>> results;  // per player
};

// Runs coin_expose for the given coin set under the given faulty behavior.
ExposeRun run_expose(int n, int t, std::uint64_t seed,
                     const std::vector<int>& faulty,
                     const Cluster::Program& adversary) {
  auto coins = trusted_dealer_coins<F>(n, t, 1, seed);
  ExposeRun out;
  out.results.assign(n, std::nullopt);
  Cluster cluster(n, t, seed);
  cluster.run(
      [&](PartyIo& io) {
        out.results[io.id()] = coin_expose<F>(io, coins[io.id()][0]);
      },
      faulty, adversary);
  return out;
}

TEST(CoinExposeTest, AllHonestUnanimous) {
  const auto run = run_expose(7, 2, 1, {}, nullptr);
  ASSERT_TRUE(run.results[0].has_value());
  for (int i = 1; i < 7; ++i) {
    ASSERT_TRUE(run.results[i].has_value());
    EXPECT_EQ(*run.results[i], *run.results[0]);
  }
}

TEST(CoinExposeTest, CrashFaultsTolerated) {
  const auto run = run_expose(7, 2, 2, {0, 3}, nullptr);
  std::optional<F> first;
  for (int i = 0; i < 7; ++i) {
    if (i == 0 || i == 3) continue;
    ASSERT_TRUE(run.results[i].has_value()) << i;
    if (!first) first = *run.results[i];
    EXPECT_EQ(*run.results[i], *first);
  }
}

TEST(CoinExposeTest, ByzantineWrongSharesTolerated) {
  // Faulty players send random garbage shares; Berlekamp-Welch must still
  // produce the true coin for every honest player.
  auto coins = trusted_dealer_coins<F>(7, 2, 1, 3);
  // Ground truth: reconstruct offline from all honest shares.
  std::vector<PointValue<F>> pts;
  for (int i = 0; i < 7; ++i) {
    pts.push_back({eval_point<F>(i), *coins[i][0].share});
  }
  const F truth = *rs_decode_at_zero<F>(pts, 2, 0);

  std::vector<std::optional<F>> results(7);
  Cluster cluster(7, 2, 3);
  cluster.run(
      [&](PartyIo& io) {
        results[io.id()] = coin_expose<F>(io, coins[io.id()][0]);
      },
      {1, 5},
      [&](PartyIo& io) {
        // Equivocating garbage: a different random share to each receiver.
        const std::uint32_t tag = make_tag(ProtoId::kCoinExpose, 0, 0);
        for (int to = 0; to < io.n(); ++to) {
          ByteWriter w;
          write_elem(w, random_element<F>(io.rng()));
          io.send(to, tag, std::move(w).take());
        }
        io.sync();
      });
  for (int i = 0; i < 7; ++i) {
    if (i == 1 || i == 5) continue;
    ASSERT_TRUE(results[i].has_value()) << i;
    EXPECT_EQ(*results[i], truth) << i;
  }
}

TEST(CoinExposeTest, MalformedMessagesIgnored) {
  auto coins = trusted_dealer_coins<F>(7, 2, 1, 4);
  std::vector<std::optional<F>> results(7);
  Cluster cluster(7, 2, 4);
  cluster.run(
      [&](PartyIo& io) {
        results[io.id()] = coin_expose<F>(io, coins[io.id()][0]);
      },
      {2},
      [&](PartyIo& io) {
        // Truncated/oversized junk.
        const std::uint32_t tag = make_tag(ProtoId::kCoinExpose, 0, 0);
        io.send_all(tag, {0x01, 0x02});
        io.sync();
      });
  for (int i = 0; i < 7; ++i) {
    if (i == 2) continue;
    ASSERT_TRUE(results[i].has_value());
  }
}

TEST(CoinExposeTest, NonHolderStillLearnsCoin) {
  // A player without a share (e.g. outside the qualified set) receives
  // the coin anyway.
  auto coins = trusted_dealer_coins<F>(7, 2, 1, 5);
  coins[6][0].share.reset();  // player 6 holds nothing
  std::vector<std::optional<F>> results(7);
  Cluster cluster(7, 2, 5);
  cluster.run(std::vector<Cluster::Program>(7, [&](PartyIo& io) {
    results[io.id()] = coin_expose<F>(io, coins[io.id()][0]);
  }));
  ASSERT_TRUE(results[6].has_value());
  EXPECT_EQ(*results[6], *results[0]);
}

TEST(CoinExposeTest, CoinsAreUniformlyDistributedBits) {
  // Binary projection of many independent genesis coins is ~fair.
  const int kCoins = 400;
  auto coins = trusted_dealer_coins<F>(4, 1, kCoins, 6);
  int ones = 0;
  Cluster cluster(4, 1, 6);
  cluster.run(std::vector<Cluster::Program>(4, [&](PartyIo& io) {
    for (int c = 0; c < kCoins; ++c) {
      auto v = coin_expose<F>(io, coins[io.id()][c], c);
      ASSERT_TRUE(v.has_value());
      if (io.id() == 0) ones += coin_to_bit(*v);
    }
  }));
  EXPECT_NEAR(double(ones) / kCoins, 0.5, 0.1);
}

TEST(CoinExposeTest, AdversaryCoalitionCannotPredictCoin) {
  // Information-theoretic unpredictability: t shares of a degree-t
  // sharing are consistent with every possible coin value. Constructive
  // check as in ShamirTest::TSharesRevealNothing, on dealer output.
  const int n = 7, t = 2;
  auto coins = trusted_dealer_coins<F>(n, t, 1, 7);
  // Adversary corrupts players 0,1 (t = 2) and tries to infer the coin.
  std::vector<PointValue<F>> known = {
      {eval_point<F>(0), *coins[0][0].share},
      {eval_point<F>(1), *coins[1][0].share},
  };
  // For any candidate coin value v there is a consistent polynomial.
  for (std::uint64_t v : {0ull, 1ull, 0xDEADull}) {
    std::vector<PointValue<F>> pts = known;
    pts.push_back({F::zero(), F::from_uint(v)});
    const auto f = lagrange_interpolate<F>(pts);
    EXPECT_LE(f.degree(), t);
  }
}

TEST(CoinExposeTest, ParallelInstancesDoNotInterfere) {
  auto coins = trusted_dealer_coins<F>(4, 1, 2, 8);
  std::vector<F> coin_a(4), coin_b(4);
  Cluster cluster(4, 1, 8);
  cluster.run(std::vector<Cluster::Program>(4, [&](PartyIo& io) {
    // Expose two different coins with different instance tags in the same
    // round (both sends staged before the shared sync inside the second
    // call would be wrong, so expose sequentially but verify tags).
    coin_a[io.id()] = *coin_expose<F>(io, coins[io.id()][0], 10);
    coin_b[io.id()] = *coin_expose<F>(io, coins[io.id()][1], 11);
  }));
  EXPECT_NE(coin_a[0], coin_b[0]);  // distinct coins (w.h.p.)
  for (int i = 1; i < 4; ++i) {
    EXPECT_EQ(coin_a[i], coin_a[0]);
    EXPECT_EQ(coin_b[i], coin_b[0]);
  }
}

}  // namespace
}  // namespace dprbg
