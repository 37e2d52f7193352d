// Tests for Batch-VSS (Fig. 3): completeness over M sharings, soundness
// against one bad polynomial hidden in a batch (Lemma 3), amortized cost
// (Lemma 4 / Corollary 1).

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "dprbg/trusted_dealer.h"
#include "gf/gf2.h"
#include "net/cluster.h"
#include "vss/batch_vss.h"

namespace dprbg {
namespace {

using F = GF2_64;

std::vector<Polynomial<F>> make_polys(unsigned m, unsigned deg,
                                      std::uint64_t seed) {
  Chacha rng(seed, 777);
  std::vector<Polynomial<F>> polys;
  for (unsigned j = 0; j < m; ++j) polys.push_back(Polynomial<F>::random(deg, rng));
  return polys;
}

std::vector<std::optional<BatchVssOutcome<F>>> run_batch(
    int n, int t, std::uint64_t seed, const std::vector<Polynomial<F>>& polys,
    unsigned m) {
  auto coins = trusted_dealer_coins<F>(n, t, 1, seed);
  std::vector<std::optional<BatchVssOutcome<F>>> outcomes(n);
  Cluster cluster(n, t, seed);
  cluster.run(std::vector<Cluster::Program>(n, [&](PartyIo& io) {
    PolyBlock<F> mine;
    if (io.id() == 0) mine = PolyBlock<F>::from_polys(polys);
    outcomes[io.id()] =
        batch_vss<F>(io, 0, t, m, mine, coins[io.id()][0]);
  }));
  return outcomes;
}

TEST(BatchVssTest, HonestBatchAccepted) {
  for (unsigned m : {1u, 4u, 32u}) {
    const auto polys = make_polys(m, 2, m);
    const auto outcomes = run_batch(7, 2, m, polys, m);
    for (int i = 0; i < 7; ++i) {
      ASSERT_TRUE(outcomes[i].has_value());
      EXPECT_TRUE(outcomes[i]->accepted) << "m=" << m << " player " << i;
    }
  }
}

TEST(BatchVssTest, SharesMatchAllPolynomials) {
  const unsigned m = 8;
  const auto polys = make_polys(m, 2, 50);
  const auto outcomes = run_batch(7, 2, 50, polys, m);
  for (int i = 0; i < 7; ++i) {
    ASSERT_EQ(outcomes[i]->shares.size(), m);
    for (unsigned j = 0; j < m; ++j) {
      EXPECT_EQ(outcomes[i]->shares[j], polys[j](eval_point<F>(i)));
    }
  }
}

TEST(BatchVssTest, OneBadPolynomialSpoilsBatch) {
  // 15 good degree-2 polynomials + 1 of degree 4 anywhere in the batch.
  for (unsigned bad_pos : {0u, 7u, 15u}) {
    auto polys = make_polys(16, 2, 60 + bad_pos);
    Chacha rng(99 + bad_pos, 3);
    polys[bad_pos] = Polynomial<F>::random(4, rng);
    const auto outcomes = run_batch(7, 2, 60 + bad_pos, polys, 16);
    for (int i = 0; i < 7; ++i) {
      EXPECT_FALSE(outcomes[i]->accepted)
          << "bad_pos=" << bad_pos << " player " << i;
    }
  }
}

TEST(BatchVssTest, AllBadPolynomialsRejected) {
  const auto polys = make_polys(8, 5, 70);  // all degree 5 > t = 2
  const auto outcomes = run_batch(7, 2, 70, polys, 8);
  for (int i = 0; i < 7; ++i) EXPECT_FALSE(outcomes[i]->accepted);
}

TEST(BatchVssTest, BatchCombineIsHornerOfPowers) {
  // batch_combine(shares, r) = sum_j shares[j-1] * r^j (Fig. 3 step 2).
  Chacha rng(1);
  std::vector<F> shares;
  for (int j = 0; j < 6; ++j) shares.push_back(random_element<F>(rng));
  const F r = random_element<F>(rng);
  F expected = F::zero();
  F rp = F::one();
  for (int j = 0; j < 6; ++j) {
    rp = rp * r;
    expected = expected + shares[j] * rp;
  }
  EXPECT_EQ(batch_combine<F>(shares, r), expected);
}

TEST(BatchVssTest, CommunicationIndependentOfM) {
  // Lemma 4: the verification traffic (combination broadcast) does not
  // grow with M; only the one-time distribution does.
  auto comm_for = [&](unsigned m) {
    const auto polys = make_polys(m, 2, 80 + m);
    auto coins = trusted_dealer_coins<F>(7, 2, 1, 80 + m);
    Cluster cluster(7, 2, 80 + m);
    cluster.run(std::vector<Cluster::Program>(7, [&](PartyIo& io) {
      PolyBlock<F> mine;
      if (io.id() == 0) mine = PolyBlock<F>::from_polys(polys);
      (void)batch_vss<F>(io, 0, 2, m, mine, coins[io.id()][0]);
    }));
    return cluster.comm();
  };
  const auto small = comm_for(2);
  const auto large = comm_for(64);
  // Message *count* identical; byte growth only from the dealer's
  // distribution (6 messages of ~64*8 bytes).
  EXPECT_EQ(small.messages, large.messages);
  EXPECT_LT(large.bytes - small.bytes, 64u * 8u * 7u);
}

TEST(BatchVssTest, InterpolationCountIndependentOfM) {
  // Corollary 1: 2 interpolations however large the batch.
  const unsigned m = 128;
  const auto polys = make_polys(m, 2, 90);
  auto coins = trusted_dealer_coins<F>(7, 2, 1, 90);
  Cluster cluster(7, 2, 90);
  cluster.run(std::vector<Cluster::Program>(7, [&](PartyIo& io) {
    PolyBlock<F> mine;
    if (io.id() == 0) mine = PolyBlock<F>::from_polys(polys);
    (void)batch_vss<F>(io, 0, 2, m, mine, coins[io.id()][0]);
  }));
  for (int i = 0; i < 7; ++i) {
    EXPECT_LE(cluster.per_player_field_ops()[i].interpolations, 2u);
  }
}

TEST(BatchVssTest, TruncatedShareVectorHandled) {
  // Dealer sends fewer than M shares to one player: that player's row is
  // zeroed and (being inconsistent with other players' combinations) the
  // batch is rejected by everyone... except the dealer *is* inconsistent,
  // so rejection is the correct outcome for the cheated player; the other
  // players still see a valid combination from >= n - t players and may
  // accept. Assert no crash and a unanimous decision among honest
  // non-cheated players.
  const int n = 7, t = 2;
  const unsigned m = 4;
  const auto polys = make_polys(m, 2, 95);
  auto coins = trusted_dealer_coins<F>(n, t, 1, 95);
  std::vector<std::optional<BatchVssOutcome<F>>> outcomes(n);
  Cluster cluster(n, t, 95);
  cluster.run(
      [&](PartyIo& io) {
        outcomes[io.id()] = batch_vss<F>(io, 0, t, m, {}, coins[io.id()][0]);
      },
      {0},
      [&](PartyIo& io) {
        // Dealer: correct shares to everyone except player 3, who gets a
        // truncated vector.
        for (int i = 0; i < io.n(); ++i) {
          ByteWriter w;
          const unsigned count = (i == 3) ? m - 1 : m;
          for (unsigned j = 0; j < count; ++j) {
            write_elem(w, polys[j](eval_point<F>(i)));
          }
          io.send(i, make_tag(ProtoId::kBatchVss, 0, 0), std::move(w).take());
        }
        (void)coin_expose<F>(io, coins[io.id()][0]);
        ByteWriter w;
        write_elem(w, batch_combine<F>(
                          std::vector<F>{polys[0](eval_point<F>(0)),
                                         polys[1](eval_point<F>(0)),
                                         polys[2](eval_point<F>(0)),
                                         polys[3](eval_point<F>(0))},
                          F::zero()));
        io.sync();
      });
  // Honest players (1,2,4,5,6) all decide; player 3's row was zeroed but
  // the other 5 >= n - t combinations still certify the sharing.
  for (int i = 1; i < n; ++i) {
    ASSERT_TRUE(outcomes[i].has_value()) << i;
  }
}

}  // namespace
}  // namespace dprbg
