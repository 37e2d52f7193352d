// Quickstart: bootstrap a D-PRBG among 7 players and draw shared coins.
//
// The flow mirrors Fig. 1 of the paper:
//   1. a trusted dealer seeds the system ONCE with a handful of sealed
//      coins (Rabin-style genesis),
//   2. each player wraps its share of the seed in a DPrbg,
//   3. drawing coins transparently triggers Coin-Gen refills: the seed is
//      "stretched" into an endless unanimous coin stream.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>
#include <vector>

#include "dprbg/dprbg.h"
#include "dprbg/trusted_dealer.h"
#include "gf/gf2.h"
#include "net/cluster.h"

using namespace dprbg;

int main() {
  using F = GF2_64;  // security parameter k = 64
  const int n = 7;   // players
  const int t = 1;   // tolerated faults (n >= 6t + 1)

  std::printf("D-PRBG quickstart: n=%d players, t=%d faults, k=%u bits\n\n",
              n, t, F::kBits);

  // Once-only trusted genesis: twice the refill threshold 1 + L, so the
  // first refill, like every later one, holds all L leader draws that
  // bound its failure probability by 2^-64 (dprbg/dprbg.h).
  const int genesis_coins = 2 * (1 + leader_draw_budget(n, t));
  auto genesis = trusted_dealer_coins<F>(n, t, genesis_coins, /*seed=*/2026);

  const int kDraws = 40;
  std::vector<std::vector<F>> stream(n);
  Cluster cluster(n, t, /*seed=*/2026);
  cluster.run(std::vector<Cluster::Program>(n, [&](PartyIo& io) {
    DPrbg<F>::Options opts;
    opts.batch_size = 32;  // M coins minted per Coin-Gen run
    // opts.reserve left unset: the refill threshold is derived from (n, t).
    DPrbg<F> prbg(opts, genesis[io.id()]);
    for (int d = 0; d < kDraws; ++d) {
      const auto coin = prbg.next_coin(io);
      if (coin) stream[io.id()].push_back(*coin);
    }
    if (io.id() == 0) {
      std::printf("player 0: drew %llu coins, %llu refills, pool now %zu\n",
                  static_cast<unsigned long long>(prbg.coins_drawn()),
                  static_cast<unsigned long long>(prbg.refills()),
                  prbg.pool_remaining());
    }
  }));

  std::printf("\nfirst 10 shared k-ary coins (every player sees the same):\n");
  for (int d = 0; d < 10; ++d) {
    std::printf("  coin %2d = %016llx  (bit %d)\n", d,
                static_cast<unsigned long long>(stream[0][d].to_uint()),
                coin_to_bit(stream[0][d]));
  }
  bool unanimous = true;
  for (int i = 1; i < n; ++i) {
    if (stream[i] != stream[0]) unanimous = false;
  }
  std::printf("\nunanimity across all %d players: %s\n", n,
              unanimous ? "OK" : "VIOLATED");
  return unanimous ? 0 : 1;
}
