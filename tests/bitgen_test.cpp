// Tests for Bit-Gen (Fig. 4): local acceptance of honest dealers,
// rejection of cheating dealers (Lemma 5), the batched all-dealers
// variant, cost accounting (Lemma 6).

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "coin/bitgen.h"
#include "dprbg/trusted_dealer.h"
#include "gf/gf2.h"
#include "net/cluster.h"

namespace dprbg {
namespace {

using F = GF2_64;

std::vector<Polynomial<F>> make_polys(unsigned m, unsigned deg,
                                      std::uint64_t seed) {
  Chacha rng(seed, 777);
  std::vector<Polynomial<F>> polys;
  for (unsigned j = 0; j < m; ++j) {
    polys.push_back(Polynomial<F>::random(deg, rng));
  }
  return polys;
}

TEST(BitGenTest, HonestDealerAcceptedByAll) {
  const int n = 7, t = 1;  // n >= 6t + 1
  const unsigned m = 8;
  const auto polys = make_polys(m, t, 1);
  auto coins = trusted_dealer_coins<F>(n, t, 1, 1);
  std::vector<BitGenView<F>> views(n);
  Cluster cluster(n, t, 1);
  cluster.run(std::vector<Cluster::Program>(n, [&](PartyIo& io) {
    PolyBlock<F> mine;
    if (io.id() == 0) mine = PolyBlock<F>::from_polys(polys);
    views[io.id()] =
        bit_gen_single<F>(io, 0, m, t, mine, coins[io.id()][0]);
  }));
  for (int i = 0; i < n; ++i) {
    EXPECT_TRUE(views[i].accepted()) << "player " << i;
    ASSERT_EQ(views[i].my_row.size(), m);
    for (unsigned j = 0; j < m; ++j) {
      EXPECT_EQ(views[i].my_row[j], polys[j](eval_point<F>(i)));
    }
  }
}

TEST(BitGenTest, DecodedPolynomialIsChallengeCombination) {
  // F(x) must equal sum_j r^j f_j(x).
  const int n = 7, t = 1;
  const unsigned m = 4;
  const auto polys = make_polys(m, t, 2);
  auto coins = trusted_dealer_coins<F>(n, t, 1, 2);
  std::vector<BitGenView<F>> views(n);
  std::vector<F> challenges(n);
  Cluster cluster(n, t, 2);
  cluster.run(std::vector<Cluster::Program>(n, [&](PartyIo& io) {
    PolyBlock<F> mine;
    if (io.id() == 0) mine = PolyBlock<F>::from_polys(polys);
    views[io.id()] =
        bit_gen_single<F>(io, 0, m, t, mine, coins[io.id()][0]);
  }));
  // Reconstruct the challenge from player 0's view: decode F and compare
  // against the combination of the true polynomials at a few points.
  ASSERT_TRUE(views[0].accepted());
  // Recover r by exposing the same coin offline.
  std::vector<PointValue<F>> pts;
  auto seed_coins = trusted_dealer_coins<F>(n, t, 1, 2);
  for (int i = 0; i < n; ++i) {
    pts.push_back({eval_point<F>(i), *seed_coins[i][0].share});
  }
  const F r = *reconstruct_secret<F>(pts, t, 0);
  Polynomial<F> expected;
  F rp = F::one();
  for (unsigned j = 0; j < m; ++j) {
    rp = rp * r;
    expected = expected + rp * polys[j];
  }
  EXPECT_EQ(*views[0].poly, expected);
}

TEST(BitGenTest, OverDegreeDealerRejected) {
  // Lemma 5: a sharing with some deg(f_j) > t is accepted with
  // probability <= M/p; over GF(2^64) that is never in practice.
  const int n = 7, t = 1;
  const unsigned m = 8;
  for (unsigned bad : {0u, 3u, 7u}) {
    auto polys = make_polys(m, t, 10 + bad);
    Chacha rng(99, bad);
    polys[bad] = Polynomial<F>::random(t + 2, rng);
    auto coins = trusted_dealer_coins<F>(n, t, 1, 10 + bad);
    std::vector<BitGenView<F>> views(n);
    Cluster cluster(n, t, 10 + bad);
    cluster.run(std::vector<Cluster::Program>(n, [&](PartyIo& io) {
      PolyBlock<F> mine;
      if (io.id() == 0) mine = PolyBlock<F>::from_polys(polys);
      views[io.id()] =
          bit_gen_single<F>(io, 0, m, t, mine, coins[io.id()][0]);
    }));
    for (int i = 0; i < n; ++i) {
      EXPECT_FALSE(views[i].accepted()) << "bad=" << bad << " player " << i;
    }
  }
}

TEST(BitGenTest, SilentDealerRejected) {
  const int n = 7, t = 1;
  auto coins = trusted_dealer_coins<F>(n, t, 1, 20);
  std::vector<BitGenView<F>> views(n);
  Cluster cluster(n, t, 20);
  cluster.run(
      [&](PartyIo& io) {
        views[io.id()] =
            bit_gen_single<F>(io, 0, 4, t, {}, coins[io.id()][0]);
      },
      {0}, nullptr);
  for (int i = 1; i < n; ++i) {
    EXPECT_FALSE(views[i].accepted());
    EXPECT_TRUE(views[i].my_row.empty());
  }
}

TEST(BitGenTest, ByzantineCombinersDoNotSpoilHonestDealer) {
  const int n = 13, t = 2;
  const unsigned m = 4;
  const auto polys = make_polys(m, t, 30);
  auto coins = trusted_dealer_coins<F>(n, t, 1, 30);
  std::vector<BitGenView<F>> views(n);
  Cluster cluster(n, t, 30);
  cluster.run(
      [&](PartyIo& io) {
        PolyBlock<F> mine;
        if (io.id() == 0) mine = PolyBlock<F>::from_polys(polys);
        views[io.id()] =
            bit_gen_single<F>(io, 0, m, t, mine, coins[io.id()][0]);
      },
      {5, 9},
      [&](PartyIo& io) {
        // Expose the coin honestly, then send wrong combination shares.
        (void)coin_expose<F>(io, coins[io.id()][0]);
        ByteWriter w;
        write_elem(w, random_element<F>(io.rng()));
        io.send_all(make_tag(ProtoId::kBitGen, 0, 1), w.data());
        io.sync();
      });
  for (int i = 0; i < n; ++i) {
    if (i == 5 || i == 9) continue;
    EXPECT_TRUE(views[i].accepted()) << "player " << i;
  }
}

TEST(BitGenTest, AllDealersParallelAllAccepted) {
  const int n = 7, t = 1;
  const unsigned m_total = 5;
  auto coins = trusted_dealer_coins<F>(n, t, 1, 40);
  std::vector<BitGenAllOutcome<F>> outcomes(n);
  Cluster cluster(n, t, 40);
  cluster.run(std::vector<Cluster::Program>(n, [&](PartyIo& io) {
    const auto mine = PolyBlock<F>::random(m_total, t, io.rng());
    outcomes[io.id()] =
        bit_gen_all<F>(io, mine, m_total, t, coins[io.id()][0]);
  }));
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(outcomes[i].challenge.has_value());
    EXPECT_EQ(*outcomes[i].challenge, *outcomes[0].challenge);
    for (int dealer = 0; dealer < n; ++dealer) {
      EXPECT_TRUE(outcomes[i].views[dealer].accepted())
          << "player " << i << " dealer " << dealer;
      EXPECT_EQ(outcomes[i].views[dealer].my_row.size(), m_total);
    }
  }
}

TEST(BitGenTest, AllDealersSameDecodedPolynomials) {
  // Every honest player decodes the same F_j for every honest dealer j.
  const int n = 7, t = 1;
  auto coins = trusted_dealer_coins<F>(n, t, 1, 41);
  std::vector<BitGenAllOutcome<F>> outcomes(n);
  Cluster cluster(n, t, 41);
  cluster.run(std::vector<Cluster::Program>(n, [&](PartyIo& io) {
    const auto mine = PolyBlock<F>::random(3, t, io.rng());
    outcomes[io.id()] = bit_gen_all<F>(io, mine, 3, t, coins[io.id()][0]);
  }));
  for (int dealer = 0; dealer < n; ++dealer) {
    for (int i = 1; i < n; ++i) {
      EXPECT_EQ(*outcomes[i].views[dealer].poly,
                *outcomes[0].views[dealer].poly)
          << "dealer " << dealer << " player " << i;
    }
  }
}

TEST(BitGenTest, InterpolationCountMatchesLemma6) {
  // Lemma 6: 2 polynomial interpolations per player for the whole batch
  // (one for the coin, one for the combination decode), regardless of M.
  const int n = 7, t = 1;
  const unsigned m = 64;
  const auto polys = make_polys(m, t, 50);
  auto coins = trusted_dealer_coins<F>(n, t, 1, 50);
  Cluster cluster(n, t, 50);
  cluster.run(std::vector<Cluster::Program>(n, [&](PartyIo& io) {
    PolyBlock<F> mine;
    if (io.id() == 0) mine = PolyBlock<F>::from_polys(polys);
    (void)bit_gen_single<F>(io, 0, m, t, mine, coins[io.id()][0]);
  }));
  for (int i = 0; i < n; ++i) {
    EXPECT_LE(cluster.per_player_field_ops()[i].interpolations, 2u)
        << "player " << i;
  }
}

TEST(BitGenTest, MessageVolumeMatchesTheorem2Shape) {
  // bit_gen_all: n row-messages of size ~M*k per dealer + n^2 coin shares
  // of size k + n^2 batched combos of size ~n*k.
  const int n = 7, t = 1;
  const unsigned m_total = 16;
  auto coins = trusted_dealer_coins<F>(n, t, 1, 51);
  Cluster cluster(n, t, 51);
  cluster.run(std::vector<Cluster::Program>(n, [&](PartyIo& io) {
    const auto mine = PolyBlock<F>::random(m_total, t, io.rng());
    (void)bit_gen_all<F>(io, mine, m_total, t, coins[io.id()][0]);
  }));
  // 3 message groups of <= n^2 each (rows, coin shares, combos).
  EXPECT_LE(cluster.comm().messages, static_cast<std::uint64_t>(3 * n * n));
  EXPECT_EQ(cluster.comm().rounds, 2u);
}

}  // namespace
}  // namespace dprbg
