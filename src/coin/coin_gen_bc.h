// Broadcast-model coin generation — the paper's "simpler algorithm".
//
// Section 4 opens: "Coins are often used as a source of randomness to
// execute Byzantine agreement, and hence implement a broadcast channel.
// Thus, we will omit the assumption of a broadcast channel from the
// model. Yet, if the coins are used for an application other than
// broadcast, then the simpler algorithm which assumes broadcast can be
// utilized."
//
// This is that simpler algorithm (n >= 3t + 1, broadcast assumed as in
// Section 3): every player deals a Batch-VSS-style batch of m+1
// polynomials (blinder at index 0), all verified with ONE shared
// challenge; because combination values are broadcast, all honest
// players compute the same accepted-dealer set with no clique finding,
// no grade-cast, and no Byzantine agreement. Each coin is the sum of the
// first t+1 accepted dealers' secrets — any t+1 dealers include at least
// one honest one, whose secret the adversary cannot know from t shares.
//
// The cost gap between this and the full Coin-Gen (Fig. 5) is precisely
// the price of removing the broadcast assumption; the `ablation`
// benchmark measures it.

#pragma once

#include <vector>

#include "common/check.h"
#include "gf/field_concept.h"
#include "net/endpoint.h"
#include "poly/polynomial.h"
#include "coin/bitgen.h"
#include "coin/sealed_coin.h"

namespace dprbg {

template <FiniteField F>
struct BcCoinGenResult {
  bool success = false;
  // Dealers whose batch verified (unanimous under the broadcast
  // assumption).
  std::vector<int> accepted_dealers;
  // The first t+1 accepted dealers, whose secrets are summed per coin.
  std::vector<int> summed_dealers;
  // sigma_{i,h} for h = 1..m; empty when this player misses some summed
  // dealer's row (cannot happen to an honest player under an honest
  // accepted dealer, whose row reached everyone).
  std::vector<F> coin_shares;

  [[nodiscard]] std::vector<SealedCoin<F>> sealed_coins(unsigned t) const {
    std::vector<SealedCoin<F>> coins;
    if (!success) return coins;
    coins.reserve(coin_shares.size());
    for (const F& share : coin_shares) {
      coins.push_back(SealedCoin<F>{share, t});
    }
    return coins;
  }
};

// Generates m sealed coins under the Section 3 model (n >= 3t+1 plus a
// broadcast channel; adversaries must not equivocate announced values —
// that is the assumption this variant buys its simplicity with).
// 2 rounds, one challenge coin.
template <FiniteField F, NetEndpoint Io>
BcCoinGenResult<F> coin_gen_broadcast(Io& io, unsigned m,
                                      const SealedCoin<F>& challenge_coin,
                                      unsigned instance = 0) {
  const unsigned t = static_cast<unsigned>(io.t());
  DPRBG_CHECK(io.n() >= static_cast<int>(3 * t + 1));
  const unsigned m_total = m + 1;  // index 0: blinding polynomial

  const auto my_polys = PolyBlock<F>::random(m_total, t, io.rng());
  const auto bg =
      bit_gen_all<F>(io, my_polys, m_total, t, challenge_coin, instance);

  BcCoinGenResult<F> result;
  if (!bg.challenge.has_value()) return result;
  for (int dealer = 0; dealer < io.n(); ++dealer) {
    if (bg.views[dealer].accepted()) {
      result.accepted_dealers.push_back(dealer);
    }
  }
  if (result.accepted_dealers.size() < t + 1) return result;
  result.summed_dealers.assign(result.accepted_dealers.begin(),
                               result.accepted_dealers.begin() + t + 1);
  // Sum my rows across the summed dealers (skipping the blinder row 0).
  for (int dealer : result.summed_dealers) {
    if (bg.views[dealer].my_row.empty()) return result;  // not a holder
  }
  result.coin_shares.assign(m, F::zero());
  for (unsigned h = 0; h < m; ++h) {
    F sigma = F::zero();
    for (int dealer : result.summed_dealers) {
      sigma = sigma + bg.views[dealer].my_row[h + 1];
    }
    result.coin_shares[h] = sigma;
  }
  result.success = true;
  return result;
}

}  // namespace dprbg
