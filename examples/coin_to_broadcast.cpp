// Full-stack composition: a broadcast channel built from shared coins —
// closing the loop the paper opens in Section 1 ("most of the solutions
// ... assume strong underlying primitives (e.g., the existence of a
// broadcast channel, which the primitive itself is trying to help
// implement)") and Section 4 ("Coins are often used as a source of
// randomness to execute Byzantine agreement, and hence implement a
// broadcast channel").
//
// The stack, bottom to top, with NO broadcast assumption anywhere:
//   1. trusted genesis (once) -> D-PRBG (Coin-Gen is broadcast-free),
//   2. D-PRBG coins -> randomized binary Byzantine agreement,
//   3. binary BA -> multivalued BA (Turpin-Coan),
//   4. multivalued BA -> reliable broadcast.
// A Byzantine sender then tries to equivocate a "config update" to the
// cluster; the honest players deliver one consistent value anyway.
//
// Build & run:  ./build/examples/coin_to_broadcast

#include <cstdio>
#include <string>
#include <vector>

#include "ba/multivalued.h"
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
      "broadcast-from-coins demo: n=%d, t=%d, no broadcast channel "
      "assumed anywhere\n\n",
      n, t);

  // Genesis: twice the refill threshold 1 + L (dprbg/dprbg.h).
  auto genesis = trusted_dealer_coins<F>(
      n, t, 2 * (1 + leader_draw_budget(n, t)), /*seed=*/1234);
  std::vector<std::vector<std::uint8_t>> delivered(n);

  Cluster cluster(n, t, 1234);
  cluster.run(
      [&](PartyIo& io) {
        DPrbg<F>::Options opts;
        opts.batch_size = 64;
        DPrbg<F> prbg(opts, genesis[io.id()]);
        // Binary BA driven by D-PRBG coins (one coin per phase).
        const BinaryBa coin_ba = [&](PartyIo& pio, int input,
                                     unsigned instance) {
          const auto result = randomized_ba(
              pio, input, [&](PartyIo& p) { return prbg.next_bit(p); },
              /*max_phases=*/12, instance);
          return result.decision.value_or(0);
        };
        // Broadcast 1: an honest sender's config update reaches everyone.
        const std::string update = "config: leader=carol";
        const auto honest = broadcast_via_ba(
            io, /*sender=*/5,
            std::vector<std::uint8_t>(update.begin(), update.end()),
            /*instance=*/0, coin_ba);
        // Broadcast 2: player 3 is Byzantine and equivocates; agreement
        // holds regardless (here: unanimous fallback delivery, since no
        // single value was seen by n - t players).
        const auto result =
            broadcast_via_ba(io, /*sender=*/3, {}, /*instance=*/1, coin_ba);
        delivered[io.id()] = result.value;
        if (io.id() == 1) {
          std::printf("honest broadcast delivered: \"%s\" at every "
                      "player\n\n",
                      std::string(honest.value.begin(), honest.value.end())
                          .c_str());
        }
      },
      /*faulty=*/{3},
      [&](PartyIo& io) {
        // Equivocate its own broadcast: different "config" to each half.
        // The adversary cannot know which round the honest players will
        // read (their coin refills shift the schedule), so it re-sends
        // the split every round — the strongest version of the attack.
        const auto tag = make_tag(ProtoId::kRandomizedBa, 1, 42);
        const std::string a = "config: leader=alice";
        const std::string b = "config: leader=bob";
        for (int round = 0; round < 400; ++round) {
          for (int to = 0; to < io.n(); ++to) {
            const std::string& v = to % 2 == 0 ? a : b;
            io.send(to, tag,
                    std::vector<std::uint8_t>(v.begin(), v.end()));
          }
          io.sync();
        }
      });

  bool agreement = true;
  for (int i = 0; i < n; ++i) {
    if (i == 3) continue;
    if (delivered[i] != delivered[(3 + 1) % n]) agreement = false;
    std::printf("  player %2d delivered: \"%s\"%s\n", i,
                std::string(delivered[i].begin(), delivered[i].end())
                    .c_str(),
                delivered[i].empty() ? " (fallback: no consistent value)"
                                     : "");
  }
  std::printf(
      "\nthe equivocating sender split the cluster 6/5 between two "
      "configs;\nhonest agreement on a single delivery: %s\n",
      agreement ? "OK" : "VIOLATED");
  return agreement ? 0 : 1;
}
