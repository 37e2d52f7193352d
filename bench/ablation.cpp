// Ablations of the paper's design choices (DESIGN.md §5 calls these out;
// each isolates one decision and measures what it buys):
//
//  A. One shared challenge coin for all n Bit-Gen instances vs a fresh
//     coin per instance — Theorem 2's note: "n polynomial interpolations
//     have been saved by using the same coin for all the invocations of
//     Bit-Gen."
//  B. The polynomial-time matching clique approximation vs exact maximum
//     clique — what size is given up, at what cost (Fig. 5 step 6).
//  C. The broadcast-assumption variant (Section 3 model) vs the full
//     point-to-point Coin-Gen (Section 4) — the price of removing the
//     broadcast channel.
//  D. Blinding polynomial on/off — the security fix's overhead
//     (DESIGN.md §3; the attack itself is demonstrated in
//     tests/blinding_ablation_test.cpp).

#include <chrono>
#include <cstdio>
#include <set>
#include <vector>

#include "bench_util.h"
#include "coin/bitgen.h"
#include "coin/clique.h"
#include "coin/coin_gen.h"
#include "coin/coin_gen_bc.h"
#include "dprbg/coin_pool.h"
#include "dprbg/trusted_dealer.h"
#include "gf/gf2.h"
#include "net/cluster.h"
#include "rng/chacha.h"

namespace dprbg {
namespace {

using F = GF2_64;
using bench::fmt;

// --- A: shared vs fresh challenge coins -------------------------------

void ablation_shared_coin() {
  bench::print_header(
      "Ablation A: shared challenge vs fresh coin per Bit-Gen instance",
      "Theorem 2: one shared coin saves n interpolations per player");
  bench::Table table(
      {"variant", "n", "interp/player", "seed coins", "rounds"});
  for (int n : {7, 13}) {
    const int t = (n - 1) / 6;
    const unsigned m_total = 9;
    // Shared: one bit_gen_all.
    {
      auto genesis = trusted_dealer_coins<F>(n, t, 1, 900 + n);
      Cluster cluster(n, t, 900 + n);
      cluster.run(std::vector<Cluster::Program>(n, [&](PartyIo& io) {
        const auto polys = PolyBlock<F>::random(m_total, t, io.rng());
        (void)bit_gen_all<F>(io, polys, m_total, t, genesis[io.id()][0]);
      }));
      table.row({"shared coin (Fig. 5)", fmt(n),
                 fmt(cluster.per_player_field_ops()[1].interpolations),
                 "1", fmt(cluster.comm().rounds)});
    }
    // Fresh: n sequential single-dealer Bit-Gens, each with its own coin.
    {
      auto genesis = trusted_dealer_coins<F>(n, t, n, 910 + n);
      Cluster cluster(n, t, 910 + n);
      cluster.run(std::vector<Cluster::Program>(n, [&](PartyIo& io) {
        for (int dealer = 0; dealer < n; ++dealer) {
          PolyBlock<F> polys;
          if (io.id() == dealer) {
            polys = PolyBlock<F>::random(m_total, t, io.rng());
          }
          (void)bit_gen_single<F>(io, dealer, m_total, t, polys,
                                  genesis[io.id()][dealer],
                                  static_cast<unsigned>(dealer));
        }
      }));
      table.row({"fresh coin per dealer", fmt(n),
                 fmt(cluster.per_player_field_ops()[1].interpolations),
                 fmt(n), fmt(cluster.comm().rounds)});
    }
  }
  table.print();
  std::printf(
      "\nshape check: shared saves ~n interpolations (n+1 vs ~2n) and n-1 "
      "seed coins per run, and packs all instances into 2 rounds.\n");
}

// --- B: clique approximation vs exact ----------------------------------

void ablation_clique() {
  bench::print_header(
      "Ablation B: matching-based clique approx vs exact maximum clique",
      "approximation guarantees >= n-2t in O(n^2); exact is exponential");
  bench::Table table({"n", "t(bad)", "graphs", "approx avg", "exact avg",
                      "approx >= n-2t", "approx us", "exact us"});
  Chacha rng(1);
  for (int n : {13, 19, 25, 31}) {
    const int t = (n - 1) / 6;
    double approx_total = 0, exact_total = 0;
    bool bound_ok = true;
    double approx_us = 0, exact_us = 0;
    const int kGraphs = 50;
    for (int g = 0; g < kGraphs; ++g) {
      // Worst-case-ish graph: t faulty vertices with random edges.
      std::set<int> faulty;
      while (faulty.size() < static_cast<std::size_t>(t)) {
        faulty.insert(static_cast<int>(rng.uniform(n)));
      }
      Graph graph(n);
      for (int a = 0; a < n; ++a) {
        for (int b = a + 1; b < n; ++b) {
          const bool bad = faulty.count(a) || faulty.count(b);
          if (!bad || rng.uniform(2) == 0) graph.add_edge(a, b);
        }
      }
      auto t0 = std::chrono::steady_clock::now();
      const auto approx = find_large_clique(graph);
      auto t1 = std::chrono::steady_clock::now();
      const auto exact = find_max_clique_exact(graph);
      auto t2 = std::chrono::steady_clock::now();
      approx_us += std::chrono::duration<double, std::micro>(t1 - t0).count();
      exact_us += std::chrono::duration<double, std::micro>(t2 - t1).count();
      approx_total += double(approx.size());
      exact_total += double(exact.size());
      if (approx.size() < static_cast<std::size_t>(n - 2 * t)) {
        bound_ok = false;
      }
    }
    table.row({fmt(n), fmt(t), fmt(kGraphs), fmt(approx_total / kGraphs),
               fmt(exact_total / kGraphs), bound_ok ? "yes" : "NO",
               fmt(approx_us / kGraphs), fmt(exact_us / kGraphs)});
  }
  table.print();
  std::printf(
      "\nshape check: the approximation always clears the n-2t bound the "
      "protocol needs; exact cliques are slightly larger but cost "
      "exponential time in the worst case — the protocol only needs the "
      "bound.\n");
}

// --- C: broadcast model vs point-to-point ------------------------------

void ablation_broadcast() {
  bench::print_header(
      "Ablation C: Section 3 broadcast-model generation vs Section 4 "
      "point-to-point Coin-Gen",
      "removing the broadcast assumption costs the clique + grade-cast + "
      "BA machinery");
  bench::Table table({"variant", "n", "M", "rounds", "msgs", "bytes",
                      "interp/player", "ms"});
  for (int n : {7, 13}) {
    const int t = (n - 1) / 6;
    const unsigned m = 64;
    {
      auto genesis = trusted_dealer_coins<F>(n, t, 1, 930 + n);
      Cluster cluster(n, t, 930 + n);
      const auto start = std::chrono::steady_clock::now();
      cluster.run(std::vector<Cluster::Program>(n, [&](PartyIo& io) {
        (void)coin_gen_broadcast<F>(io, m, genesis[io.id()][0]);
      }));
      const auto stop = std::chrono::steady_clock::now();
      table.row({"broadcast model (S3)", fmt(n), fmt(m),
                 fmt(cluster.comm().rounds), fmt(cluster.comm().messages),
                 fmt(cluster.comm().bytes),
                 fmt(cluster.per_player_field_ops()[1].interpolations),
                 fmt(std::chrono::duration<double, std::milli>(stop - start)
                         .count())});
    }
    {
      auto genesis = trusted_dealer_coins<F>(n, t, 8, 940 + n);
      Cluster cluster(n, t, 940 + n);
      const auto start = std::chrono::steady_clock::now();
      cluster.run(std::vector<Cluster::Program>(n, [&](PartyIo& io) {
        CoinPool<F> pool;
        for (auto& c : genesis[io.id()]) pool.add(std::move(c));
        (void)coin_gen<F>(io, m, pool);
      }));
      const auto stop = std::chrono::steady_clock::now();
      table.row({"point-to-point (S4)", fmt(n), fmt(m),
                 fmt(cluster.comm().rounds), fmt(cluster.comm().messages),
                 fmt(cluster.comm().bytes),
                 fmt(cluster.per_player_field_ops()[1].interpolations),
                 fmt(std::chrono::duration<double, std::milli>(stop - start)
                         .count())});
    }
  }
  table.print();
  std::printf(
      "\nshape check: the S4 machinery multiplies rounds (~2 -> ~10+) and "
      "messages; that premium is exactly what buys coin generation with "
      "no broadcast channel (which the coins themselves then help "
      "implement).\n");
}

// --- D: blinding overhead ----------------------------------------------

void ablation_blinding() {
  bench::print_header(
      "Ablation D: blinding polynomial overhead (DESIGN.md S3)",
      "security fix costs one extra polynomial per batch: (M+1)/M "
      "dealing traffic, zero extra interpolations");
  bench::Table table({"variant", "n", "M", "bytes", "interp/player"});
  const int n = 7, t = 1;
  for (unsigned m : {8u, 64u, 512u}) {
    for (bool blinded : {false, true}) {
      const unsigned m_total = m + (blinded ? 1 : 0);
      auto genesis = trusted_dealer_coins<F>(n, t, 1, 950 + m);
      Cluster cluster(n, t, 950 + m);
      cluster.run(std::vector<Cluster::Program>(n, [&](PartyIo& io) {
        const auto polys = PolyBlock<F>::random(m_total, t, io.rng());
        (void)bit_gen_all<F>(io, polys, m_total, t, genesis[io.id()][0]);
      }));
      table.row({blinded ? "blinded (library default)" : "unblinded (Fig. 4 literal)",
                 fmt(n), fmt(m), fmt(cluster.comm().bytes),
                 fmt(cluster.per_player_field_ops()[1].interpolations)});
    }
  }
  table.print();
  std::printf(
      "\nshape check: overhead shrinks as 1/M; the unblinded variant's "
      "insecurity (last coin predictable) is proven as a test in "
      "tests/blinding_ablation_test.cpp.\n");
}

}  // namespace
}  // namespace dprbg

int main() {
  dprbg::ablation_shared_coin();
  dprbg::ablation_clique();
  dprbg::ablation_broadcast();
  dprbg::ablation_blinding();
  return 0;
}
