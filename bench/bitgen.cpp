// Experiment E6 (Lemma 6, Corollary 2): Bit-Gen cost for generating M
// sealed secrets without a broadcast channel.
//
// Paper claims: "protocol Bit-Gen requires Mtk log k + 2Mk log k
// additions and 2 polynomial interpolations per player. There are 3
// rounds of communication ... for a total of nMk + 2n^2 k bits."
// Corollary 2: amortized per *bit* computation n log k + O(log k) and
// communication n + O(1).

#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "coin/bitgen.h"
#include "dprbg/trusted_dealer.h"
#include "gf/gf2.h"
#include "net/cluster.h"

namespace dprbg {
namespace {

using F = GF2_64;
using bench::fmt;

struct Row {
  FieldCounters ops;  // representative non-dealer player
  CommCounters comm;
  double wall_ms;
};

Row measure(int n, int t, unsigned m, std::uint64_t seed) {
  auto coins = trusted_dealer_coins<F>(n, t, 1, seed);
  Chacha dealer_rng(seed, 777);
  const auto polys = PolyBlock<F>::random(m, t, dealer_rng);
  const PolyBlock<F> none;  // non-dealers pass an empty block
  Cluster cluster(n, t, seed);
  const auto start = std::chrono::steady_clock::now();
  cluster.run(std::vector<Cluster::Program>(n, [&](PartyIo& io) {
    (void)bit_gen_single<F>(io, 0, m, t, io.id() == 0 ? polys : none,
                            coins[io.id()][0]);
  }));
  const auto stop = std::chrono::steady_clock::now();
  Row row{cluster.per_player_field_ops()[1], cluster.comm(),
          std::chrono::duration<double, std::milli>(stop - start).count()};
  return row;
}

}  // namespace
}  // namespace dprbg

int main() {
  using namespace dprbg;
  using namespace dprbg::bench;
  print_header(
      "E6: Bit-Gen batched sealed-secret generation (Fig. 4)",
      "2 interpolations/player regardless of M; total traffic nMk + "
      "2n^2k bits; amortized per bit: ~n+O(1) communication (Lemma 6, "
      "Cor. 2)");

  for (int n : {7, 13, 19}) {
    const int t = (n - 1) / 6;
    std::printf("n=%d t=%d (n >= 6t+1), field GF(2^64), k=64 bits/coin\n",
                n, t);
    Table table({"M", "interp/player", "adds/player", "bytes",
                 "bytes/bit", "predicted nMk+2n^2k (bytes)", "msgs", "ms"});
    for (unsigned m : {1u, 8u, 64u, 256u, 1024u}) {
      const auto row = measure(n, t, m, 8000 + m + n);
      const double bits_generated = double(m) * F::kBits;
      const double predicted_bytes =
          (double(n) * m * F::kBits + 2.0 * n * n * F::kBits) / 8;
      table.row({fmt(m), fmt(row.ops.interpolations), fmt(row.ops.adds),
                 fmt(row.comm.bytes),
                 fmt(double(row.comm.bytes) / bits_generated),
                 fmt(predicted_bytes), fmt(row.comm.messages),
                 fmt(row.wall_ms)});
    }
    table.print();
    std::printf("\n");
  }
  std::printf(
      "shape check: bytes/bit approaches n/8 + O(1/M) and interpolations "
      "stay at 2, matching Corollary 2's amortization.\n");
  return 0;
}
