// Ablation: why Bit-Gen batches carry a blinding polynomial (DESIGN.md §3).
//
// Fig. 4 publishes the combination polynomial F(x) = sum_j r^j f_j(x)
// during verification; in particular F(0) = sum_j r^j s_j is public,
// where s_j are the batch's sealed secrets. Without blinding, once the
// first M-1 coins of the batch are exposed the last one is *computable*:
//
//     s_M = (F(0) - sum_{j<M} r^j s_j) / r^M.
//
// This test demonstrates the attack end-to-end (the prediction matches
// the actually exposed coin every time), and then shows that one extra
// random polynomial folded into the combination — the library's standard
// configuration — reduces the attacker to a blind guess (the same
// formula now mispredicts, because F(0) contains the never-exposed
// blinder term).

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "coin/bitgen.h"
#include "coin/coin_expose.h"
#include "coin/coin_gen.h"
#include "dprbg/coin_pool.h"
#include "dprbg/trusted_dealer.h"
#include "gf/gf2.h"
#include "net/cluster.h"

namespace dprbg {
namespace {

using F = GF2_64;

struct BatchRun {
  F challenge = F::zero();
  F public_f0 = F::zero();           // F(0) from the decoded combination
  std::vector<F> exposed;            // coins revealed so far (order 1..M)
  F last_coin = F::zero();           // ground truth of the final coin
};

// Runs Bit-Gen for `m_total` polynomials (optionally with the first one
// acting as a blinder that is never exposed), then exposes all usable
// coins. Returns what a passive adversary sees: r, F(0), and the exposed
// prefix.
BatchRun run_batch(bool with_blinder, std::uint64_t seed) {
  const int n = 7, t = 1;
  const unsigned usable = 5;
  const unsigned m_total = usable + (with_blinder ? 1 : 0);
  auto genesis = trusted_dealer_coins<F>(n, t, 1, seed);
  Chacha dealer_rng(seed, 777);
  std::vector<Polynomial<F>> polys;
  for (unsigned j = 0; j < m_total; ++j) {
    polys.push_back(Polynomial<F>::random(t, dealer_rng));
  }
  BatchRun run;
  Cluster cluster(n, t, seed);
  cluster.run(std::vector<Cluster::Program>(n, [&](PartyIo& io) {
    PolyBlock<F> mine;
    if (io.id() == 0) mine = PolyBlock<F>::from_polys(polys);
    auto view =
        bit_gen_single<F>(io, 0, m_total, t, mine, genesis[io.id()][0]);
    ASSERT_TRUE(view.accepted());
    // Expose every usable coin (skipping the blinder when present).
    const unsigned first = with_blinder ? 1 : 0;
    for (unsigned j = first; j < m_total; ++j) {
      SealedCoin<F> coin{view.my_row.empty()
                             ? std::nullopt
                             : std::optional<F>(view.my_row[j]),
                         t};
      const auto value = coin_expose<F>(io, coin, 10 + j);
      ASSERT_TRUE(value.has_value());
      if (io.id() == 1) {
        run.exposed.push_back(*value);
      }
    }
    if (io.id() == 1) {
      run.public_f0 = (*view.poly)(F::zero());
      // Recover r the same way the adversary does: it participated in
      // the exposure. (Ground truth from the dealer polynomials.)
    }
  }));
  // r is public: recompute from the genesis sharing.
  std::vector<PointValue<F>> pts;
  for (int i = 0; i < n; ++i) {
    pts.push_back({eval_point<F>(i), *genesis[i][0].share});
  }
  run.challenge = *rs_decode_at_zero<F>(pts, t, 0);
  run.last_coin = run.exposed.back();
  return run;
}

// The adversary's prediction of the last coin from F(0), r, and the
// exposed prefix, assuming the combination used powers r^1..r^M over the
// exposed coins only (i.e. no blinder).
F predict_last(const BatchRun& run, unsigned m_total_assumed) {
  F acc = run.public_f0;
  F rp = F::one();
  for (unsigned j = 0; j + 1 < run.exposed.size(); ++j) {
    rp = rp * run.challenge;  // r^(j+1)
    acc = acc - rp * run.exposed[j];
  }
  // Subtract nothing for the final coin; divide by its power.
  F r_last = F::one();
  for (unsigned j = 0; j < m_total_assumed; ++j) r_last = r_last * run.challenge;
  return acc / r_last;
}

TEST(BlindingAblationTest, WithoutBlinderLastCoinIsPredictable) {
  // The attack works on every seed: the "sealed" final coin is computable
  // from public data before it is exposed.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const BatchRun run = run_batch(/*with_blinder=*/false, seed);
    ASSERT_EQ(run.exposed.size(), 5u);
    EXPECT_EQ(predict_last(run, 5), run.last_coin) << "seed " << seed;
  }
}

TEST(BlindingAblationTest, WithBlinderPredictionFails) {
  // Same formula against the blinded batch: the blinder term r^1*g(0)
  // hides the relation; prediction succeeds only with probability 2^-64.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const BatchRun run = run_batch(/*with_blinder=*/true, seed);
    ASSERT_EQ(run.exposed.size(), 5u);
    // The adversary does not know the blinder exists at which index /
    // its value; try the two natural guesses — both must fail.
    EXPECT_NE(predict_last(run, 5), run.last_coin) << "seed " << seed;
    EXPECT_NE(predict_last(run, 6), run.last_coin) << "seed " << seed;
  }
}

TEST(BlindingAblationTest, CoinGenBatchesAreBlindedByDefault) {
  // coin_gen deals m+1 polynomials for m coins: verify via the seed-coin
  // accounting that m coins come out while the combination covered m+1
  // polynomials (the coin_shares vector has exactly m entries and the
  // blinder is never exposed anywhere in the API).
  const int n = 7, t = 1;
  auto genesis = trusted_dealer_coins<F>(n, t, 8, 99);
  Cluster cluster(n, t, 99);
  cluster.run(std::vector<Cluster::Program>(n, [&](PartyIo& io) {
    CoinPool<F> pool;
    for (auto& c : genesis[io.id()]) pool.add(std::move(c));
    const auto result = coin_gen<F>(io, /*m=*/6, pool);
    ASSERT_TRUE(result.success);
    EXPECT_EQ(result.coin_shares.size(), 6u);
  }));
}

}  // namespace
}  // namespace dprbg
