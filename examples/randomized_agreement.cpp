// Randomized Byzantine agreement powered by the D-PRBG — the application
// the paper leads with ("Powerful applications in fault-tolerant
// distributed computing are today being held up by the inefficiency of
// existing protocols", Section 1).
//
// 11 players (t = 2) must agree whether to commit a distributed
// transaction. Two players are Byzantine and vote inconsistently; the
// honest majority starts split. Each BA phase consumes one shared coin
// from the generator — exactly the "coins in bulk" workload the D-PRBG
// amortizes.
//
// Build & run:  ./build/examples/randomized_agreement

#include <cstdio>
#include <vector>

#include "ba/randomized_ba.h"
#include "dprbg/dprbg.h"
#include "dprbg/trusted_dealer.h"
#include "gf/gf2.h"
#include "net/cluster.h"

using namespace dprbg;

int main() {
  using F = GF2_64;
  const int n = 11, t = 2;
  std::printf(
      "randomized agreement demo: n=%d, t=%d Byzantine, common coins from "
      "the D-PRBG\n\n",
      n, t);

  // Genesis: twice the refill threshold 1 + L (dprbg/dprbg.h).
  auto genesis = trusted_dealer_coins<F>(
      n, t, 2 * (1 + leader_draw_budget(n, t)), /*seed=*/42);
  std::vector<int> inputs = {1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1};
  std::vector<int> decisions(n, -1);
  std::vector<unsigned> phases(n, 0), coins(n, 0);

  Cluster cluster(n, t, 42);
  cluster.run(
      [&](PartyIo& io) {
        DPrbg<F>::Options opts;
        opts.batch_size = 48;
        DPrbg<F> prbg(opts, genesis[io.id()]);
        const auto result = randomized_ba(
            io, inputs[io.id()],
            [&](PartyIo& pio) { return prbg.next_bit(pio); });
        if (result.decision) decisions[io.id()] = *result.decision;
        phases[io.id()] = result.phases_run;
        coins[io.id()] = result.coins_consumed;
      },
      /*faulty=*/{3, 8},
      [&](PartyIo& io) {
        // Byzantine: vote differently to every receiver, every phase, and
        // contribute nothing to the coin exposures.
        for (unsigned phase = 0; phase < 20; ++phase) {
          const auto tag = make_tag(ProtoId::kRandomizedBa, 0, phase & 0xFF);
          for (int to = 0; to < io.n(); ++to) {
            io.send(to, tag, {static_cast<std::uint8_t>((to + phase) % 2)});
          }
          io.sync();  // votes delivered
          io.sync();  // coin exposure round
        }
      });

  std::printf("honest players' inputs were split; Byzantine players 3 and "
              "8 equivocated.\n\n");
  int agreed = -1;
  bool agreement = true;
  for (int i = 0; i < n; ++i) {
    if (i == 3 || i == 8) {
      std::printf("  player %2d: (Byzantine)\n", i);
      continue;
    }
    std::printf("  player %2d: input=%d decided=%d after %u phases (%u "
                "coins consumed)\n",
                i, inputs[i], decisions[i], phases[i], coins[i]);
    if (agreed == -1) agreed = decisions[i];
    if (decisions[i] != agreed) agreement = false;
  }
  std::printf("\nagreement among honest players: %s (value %d)\n",
              agreement ? "OK" : "VIOLATED", agreed);
  return agreement ? 0 : 1;
}
