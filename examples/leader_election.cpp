// Randomness-beacon style leader election and committee sampling — the
// modern face of the paper's shared coins (drand-like beacons, committee
// based consensus). Every epoch, the cluster uses the D-PRBG to elect a
// leader and a 5-member committee that no coalition of up to t players
// could predict or bias.
//
// Build & run:  ./build/examples/leader_election

#include <cstdio>
#include <vector>

#include "dprbg/sampling.h"
#include "dprbg/trusted_dealer.h"
#include "gf/gf2.h"
#include "net/cluster.h"

using namespace dprbg;

int main() {
  using F = GF2_64;
  const int n = 13, t = 2;
  const int kEpochs = 8;
  std::printf("leader/committee election demo: n=%d, t=%d, %d epochs\n\n",
              n, t, kEpochs);

  // Genesis: twice the refill threshold 1 + L (dprbg/dprbg.h).
  auto genesis = trusted_dealer_coins<F>(
      n, t, 2 * (1 + leader_draw_budget(n, t)), /*seed=*/321);
  std::vector<std::vector<int>> leaders(n);
  std::vector<std::vector<std::vector<int>>> committees(n);

  Cluster cluster(n, t, 321);
  cluster.run(std::vector<Cluster::Program>(n, [&](PartyIo& io) {
    DPrbg<F>::Options opts;
    opts.batch_size = 64;
    DPrbg<F> prbg(opts, genesis[io.id()]);
    for (int epoch = 0; epoch < kEpochs; ++epoch) {
      const auto leader = elect_leader<F>(io, prbg);
      const auto committee = elect_committee<F>(io, prbg, 5);
      if (leader && committee) {
        leaders[io.id()].push_back(*leader);
        committees[io.id()].push_back(*committee);
      }
    }
  }));

  bool unanimous = true;
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    std::printf("epoch %d: leader = %2d, committee = {", epoch,
                leaders[0][epoch]);
    for (std::size_t i = 0; i < committees[0][epoch].size(); ++i) {
      std::printf("%s%d", i ? ", " : "", committees[0][epoch][i]);
    }
    std::printf("}\n");
    for (int p = 1; p < n; ++p) {
      if (leaders[p][epoch] != leaders[0][epoch] ||
          committees[p][epoch] != committees[0][epoch]) {
        unanimous = false;
      }
    }
  }
  std::printf("\nall %d players agree on every election: %s\n", n,
              unanimous ? "OK" : "VIOLATED");
  return unanimous ? 0 : 1;
}
