// Pro-active security: shared coins under a MOBILE adversary.
//
// Section 1.2: "one of the motivations and applications of our work is
// pro-active security (e.g., [8, 16]), which deals with settings where
// intruders are allowed to move over time. Our solution to multiple-coin
// generation can be easily adapted to this scenario." The model (Section
// 2) only requires the faulty subset to "remain fixed for a constant
// number of rounds".
//
// This demo runs 6 epochs of coin consumption. In every epoch a
// *different* pair of players is compromised: they contribute corrupted
// sigma shares to every Coin-Expose. Unanimity survives every epoch
// because Berlekamp-Welch absorbs up to t lies per exposure — no
// assumption that the same players stay bad, unlike the amortization
// schemes the paper contrasts with ("these amortization efforts work
// subject to the proviso that the set of faulty players remain
// (relatively) fixed. In contrast, this is not required by our method.")
//
// Between epochs the remaining sealed coins are RE-RANDOMIZED with
// proactive_refresh (dprbg/proactive.h): the epoch's intruders walk away
// with shares that are stale in the next epoch, so even an adversary that
// visits more than t players *over time* never accumulates a
// reconstructing share set.
//
// Build & run:  ./build/examples/proactive_refresh

#include <cstdio>
#include <vector>

#include "coin/coin_expose.h"
#include "coin/coin_gen.h"
#include "dprbg/coin_pool.h"
#include "dprbg/dprbg.h"
#include "dprbg/proactive.h"
#include "dprbg/trusted_dealer.h"
#include "gf/gf2.h"
#include "net/cluster.h"
#include "rng/chacha.h"

using namespace dprbg;

int main() {
  using F = GF2_64;
  const int n = 13, t = 2;
  const int kEpochs = 6;
  const int kCoinsPerEpoch = 4;
  std::printf("pro-active demo: n=%d t=%d, corrupt pair rotates every "
              "epoch\n\n",
              n, t);

  // Genesis for one Coin-Gen run: its challenge plus L leader draws, so
  // the run fails with probability <= 2^-64 (dprbg/dprbg.h).
  const unsigned leader_budget = leader_draw_budget(n, t);
  auto genesis =
      trusted_dealer_coins<F>(n, t, 1 + leader_budget, /*seed=*/7);
  std::vector<std::vector<F>> stream(n);
  std::vector<int> refreshes(n, 0);
  bool ok = true;

  Cluster cluster(n, t, 7);
  cluster.run(std::vector<Cluster::Program>(n, [&](PartyIo& io) {
    CoinPool<F> pool;
    for (auto& c : genesis[io.id()]) pool.add(std::move(c));
    // One Coin-Gen run mints the whole campaign's coins up front, plus
    // one refresh-challenge coin per epoch boundary.
    auto gen = coin_gen<F>(io, kEpochs * (kCoinsPerEpoch + 1), pool,
                           leader_budget);
    if (!gen.success) return;
    auto sealed = gen.sealed_coins(static_cast<unsigned>(io.t()));

    unsigned h = 0;
    for (int epoch = 0; epoch < kEpochs; ++epoch) {
      // The adversary moves: players (2*epoch, 2*epoch+1) are compromised
      // for this epoch only.
      const int bad_a = (2 * epoch) % n;
      const int bad_b = (2 * epoch + 1) % n;
      const bool corrupted = io.id() == bad_a || io.id() == bad_b;
      for (int c = 0; c < kCoinsPerEpoch; ++c, ++h) {
        SealedCoin<F> coin = sealed[h];
        if (corrupted && coin.share) {
          // The intruder tampers with the player's share for this epoch.
          coin.share = random_element<F>(io.rng());
        }
        const auto value = coin_expose<F>(io, coin, h);
        if (value) stream[io.id()].push_back(*value);
      }
      // Epoch boundary: re-randomize the still-sealed remainder, so the
      // departing intruders' stolen shares go stale before the next
      // corruption set arrives (dprbg/proactive.h).
      const SealedCoin<F> challenge = sealed[h++];
      const std::vector<SealedCoin<F>> remaining(sealed.begin() + h,
                                                 sealed.end());
      const auto refreshed = proactive_refresh<F>(
          io, std::span<const SealedCoin<F>>(remaining), challenge,
          /*instance=*/1000 + epoch);
      if (refreshed.success) {
        std::copy(refreshed.coins.begin(), refreshed.coins.end(),
                  sealed.begin() + h);
        ++refreshes[io.id()];
      }
    }
  }));

  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    std::printf("epoch %d (corrupt: %d,%d): coins ", epoch,
                (2 * epoch) % n, (2 * epoch + 1) % n);
    for (int c = 0; c < kCoinsPerEpoch; ++c) {
      const std::size_t h = epoch * kCoinsPerEpoch + c;
      std::printf("%d", coin_to_bit(stream[0][h]));
      for (int i = 1; i < n; ++i) {
        if (stream[i].size() <= h || stream[i][h] != stream[0][h]) {
          ok = false;
        }
      }
    }
    std::printf("  unanimous across all %d players\n", n);
  }
  std::printf("\n%d share refreshes ran between epochs; "
              "mobile-adversary unanimity: %s\n",
              refreshes[2], ok ? "OK" : "VIOLATED");
  return (ok && refreshes[2] == kEpochs) ? 0 : 1;
}
