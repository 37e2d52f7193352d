// Batch-VSS: verifiably sharing 1000 secrets at the cost of one.
//
// A dealer (say, a key-management service sharding 1000 signing-key
// fragments) shares 1000 secrets among 7 players. Verifying them one by
// one would cost 1000 degree-check interpolations; Protocol Batch-VSS
// (Fig. 3) certifies all of them with ONE interpolation and one exposed
// challenge coin — and a single planted bad polynomial anywhere in the
// batch still gets caught.
//
// Build & run:  ./build/examples/batch_vss_demo

#include <cstdio>
#include <vector>

#include "dprbg/trusted_dealer.h"
#include "gf/gf2.h"
#include "net/cluster.h"
#include "vss/batch_vss.h"

using namespace dprbg;

int main() {
  using F = GF2_64;
  const int n = 7, t = 2;
  const unsigned kSecrets = 1000;

  auto run_batch = [&](bool plant_bad, std::uint64_t seed) {
    auto coins = trusted_dealer_coins<F>(n, t, 1, seed);
    Chacha dealer_rng(seed, 777);
    std::vector<Polynomial<F>> polys;
    for (unsigned j = 0; j < kSecrets; ++j) {
      polys.push_back(Polynomial<F>::random(t, dealer_rng));
    }
    if (plant_bad) {
      polys[kSecrets / 2] = Polynomial<F>::random(t + 3, dealer_rng);
    }
    const auto block = PolyBlock<F>::from_polys(polys);
    const PolyBlock<F> none;  // non-dealers pass an empty block
    bool accepted = false;
    std::uint64_t interpolations = 0;
    Cluster cluster(n, t, seed);
    cluster.run(std::vector<Cluster::Program>(n, [&](PartyIo& io) {
      const auto out = batch_vss<F>(io, 0, t, kSecrets,
                                    io.id() == 0 ? block : none,
                                    coins[io.id()][0]);
      if (io.id() == 1) accepted = out.accepted;
    }));
    interpolations = cluster.per_player_field_ops()[1].interpolations;
    return std::pair{accepted, interpolations};
  };

  std::printf("batch VSS demo: dealer shares %u secrets among %d players "
              "(t=%d)\n\n",
              kSecrets, n, t);

  const auto [ok_accepted, ok_interps] = run_batch(false, 1);
  std::printf("honest dealer  : %s, %llu interpolations per verifier "
              "(naive per-secret verification would use %u)\n",
              ok_accepted ? "ACCEPTED" : "rejected",
              static_cast<unsigned long long>(ok_interps), kSecrets);

  const auto [bad_accepted, bad_interps] = run_batch(true, 2);
  std::printf("cheating dealer: %s, %llu interpolations per verifier "
              "(1 over-degree polynomial hidden at position %u)\n",
              bad_accepted ? "accepted (!!)" : "REJECTED",
              static_cast<unsigned long long>(bad_interps), kSecrets / 2);

  const bool ok = ok_accepted && !bad_accepted;
  std::printf("\nbatch verification behaves per Lemmas 3-4: %s\n",
              ok ? "OK" : "VIOLATED");
  return ok ? 0 : 1;
}
