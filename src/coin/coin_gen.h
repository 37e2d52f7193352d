// Protocol Coin-Gen (Fig. 5): generation of M sealed shared coins.
//
// Model: n >= 6t + 1, point-to-point channels, O(1) sealed k-ary seed
// coins available. Per player:
//
//   1-3. Act as dealer of a Bit-Gen batch; participate in everyone
//        else's instance, all with the same exposed challenge r.
//   Then, per iteration:
//   9.   l <- Coin-Expose(seed coin) mod n  (leader selection).
//   4-6. Leader l only: build the mutual-verification graph G (edge
//        (j,k) when each of j,k holds a share satisfying the other's
//        decoded combination polynomial) and find a clique C_l of size
//        >= n - 2t (matching approximation).
//   7-8. Grade-Cast (C_l, {F_j}_{j in C_l}) from sender l; record its
//        confidence conf_l.
//   10.  Run BA with input 1 iff (i) conf_l = 2, (ii) |C_l| >= n - 2t,
//        and (iii) >= 3t + 1 members of C_l hold shares satisfying F_k
//        for every k in C_l (checked against this player's own copy of
//        the combination shares, which were sent to everyone).
//   11.  If BA decides 1, output C_l; otherwise repeat from step 9.
//
// Fig. 5 has every player grade-cast its clique before the leader is
// drawn; only the leader's is ever read, so here only the leader's is
// computed and sent. The coins are the same (the leader runs the same
// deterministic clique search on the same graph); the argument is in
// DESIGN.md §18. A retry costs 1 + 3 + 2(t+1) rounds instead of
// 1 + 2(t+1).
//
// Expected O(1) iterations (Lemma 8): a repeat requires the coin-selected
// leader to be faulty, probability <= t/n per iteration.
//
// Output handling (Fig. 6's "Given"): the M coins of the batch are the
// sums over the first 3t+1 dealers of C_l ("S"). A player is *qualified*
// if its own shares satisfy F_k for all k in C_l — qualified players are
// exactly those who may send sigma shares in later Coin-Expose runs.
// At least 2t+1 honest players are qualified whenever BA decides 1
// (condition (iii) seen by an honest voter plus <= t faults), which is
// what Berlekamp-Welch needs at reconstruction.
//
// Blinding: each dealer's batch has M+1 polynomials; index 0 is the
// blinding polynomial absorbed by the published combination and never
// used as a coin (DESIGN.md §3).

#pragma once

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "ba/binary_ba.h"
#include "common/trace.h"
#include "gf/field_concept.h"
#include "gf/field_io.h"
#include "gradecast/gradecast.h"
#include "net/endpoint.h"
#include "net/msg.h"
#include "poly/interpolate.h"
#include "poly/polynomial.h"
#include "sharing/shamir.h"
#include "coin/bitgen.h"
#include "coin/clique.h"
#include "coin/coin_expose.h"
#include "coin/sealed_coin.h"
#include "dprbg/coin_pool.h"

namespace dprbg {

template <FiniteField F>
struct CoinGenResult {
  bool success = false;
  // Agreed set of dealers (C_l) — identical at every honest player.
  std::vector<int> clique;
  // The first 3t+1 members of the clique: the dealers whose secrets are
  // summed into each coin (the set "S" of Fig. 6).
  std::vector<int> summed_dealers;
  // Whether this player holds verified shares of every summed dealer and
  // may therefore send sigma shares during Coin-Expose.
  bool qualified = false;
  // sigma_{i,h} = sum_{j in S} alpha_{i,j,h} for h = 1..M (pre-summed;
  // empty when not qualified).
  std::vector<F> coin_shares;
  // Seed coins consumed from the pool (challenge + one per BA iteration).
  unsigned seed_coins_used = 0;
  // Number of BA iterations run (Lemma 8: expected O(1)).
  unsigned iterations = 0;

  // The freshly minted coins as SealedCoin views for this player.
  [[nodiscard]] std::vector<SealedCoin<F>> sealed_coins(unsigned t) const {
    std::vector<SealedCoin<F>> coins;
    if (!success) return coins;
    const std::size_t m = coin_shares.size();
    coins.reserve(m);
    for (std::size_t h = 0; h < m; ++h) {
      coins.push_back(SealedCoin<F>{
          qualified ? std::optional<F>(coin_shares[h]) : std::nullopt, t});
    }
    return coins;
  }
};

namespace coin_gen_detail {

// Grade-cast payload: |C| entries of (dealer id, t+1 coefficients of the
// dealer's combined polynomial F_j).
template <FiniteField F>
std::vector<std::uint8_t> encode_clique_msg(
    const std::vector<int>& clique,
    const std::vector<BitGenView<F>>& views, unsigned t) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(clique.size()));
  for (int j : clique) {
    w.u8(static_cast<std::uint8_t>(j));
    const auto& poly = views[j].poly;
    for (unsigned c = 0; c <= t; ++c) {
      write_elem(w, poly ? poly->coeff(c) : F::zero());
    }
  }
  return std::move(w).take();
}

template <FiniteField F>
struct CliqueMsg {
  std::vector<int> clique;                 // sorted, distinct
  std::map<int, Polynomial<F>> polys;      // F_j per clique member
};

template <FiniteField F>
std::optional<CliqueMsg<F>> decode_clique_msg(
    const std::vector<std::uint8_t>& bytes, int n, unsigned t) {
  // Shape check before any parsing or allocation: an honest message is
  // one count byte plus `size` fixed-width entries, and a clique can
  // never exceed n dealers.
  if (bytes.empty()) return std::nullopt;
  const unsigned size = bytes[0];
  const std::size_t entry_bytes =
      1 + static_cast<std::size_t>(t + 1) * F::kBytes;
  if (size > static_cast<unsigned>(n) ||
      bytes.size() != 1 + size * entry_bytes) {
    return std::nullopt;
  }
  ByteReader rd(bytes);
  rd.u8();  // the count byte validated above
  CliqueMsg<F> msg;
  for (unsigned e = 0; e < size; ++e) {
    const int j = rd.u8();
    if (j >= n) return std::nullopt;
    std::vector<F> coeffs;
    coeffs.reserve(t + 1);
    for (unsigned c = 0; c <= t; ++c) coeffs.push_back(read_elem<F>(rd));
    msg.clique.push_back(j);
    msg.polys.emplace(j, Polynomial<F>{std::move(coeffs)});
  }
  if (!rd.done()) return std::nullopt;
  std::sort(msg.clique.begin(), msg.clique.end());
  if (std::adjacent_find(msg.clique.begin(), msg.clique.end()) !=
      msg.clique.end()) {
    return std::nullopt;  // duplicate dealer ids
  }
  return msg;
}

// Steps 4-6, run by the elected leader. Step 4-5: the mutual-
// verification graph. Directed edge j -> k when instance j decoded and
// k's combination share fits; G keeps mutual edges. Every honest pair is
// connected: both decode (>= n - t honest combos agree) and both sent
// fitting shares. Step 6: a clique of size >= n - 2t (find_large_clique
// guarantees that bound only when the complement's cover is <= t; with
// more faults the found clique may be smaller — condition (ii) catches
// it).
template <FiniteField F, NetEndpoint Io>
std::vector<int> leader_clique(Io& io,
                               const std::vector<BitGenView<F>>& views) {
  const int n = io.n();
  TraceSpan graph_span(io, "coin-gen", "graph");
  Graph g(n);
  for (int j = 0; j < n; ++j) {
    const auto& vj = views[j];
    if (!vj.poly) continue;
    for (int k = j + 1; k < n; ++k) {
      const auto& vk = views[k];
      if (!vk.poly) continue;
      const auto j_has_k = vj.combos.find(k);
      const auto k_has_j = vk.combos.find(j);
      const bool jk = j_has_k != vj.combos.end() &&
                      (*vj.poly)(eval_point<F>(k)) == j_has_k->second;
      const bool kj = k_has_j != vk.combos.end() &&
                      (*vk.poly)(eval_point<F>(j)) == k_has_j->second;
      if (jk && kj) {
        g.add_edge(j, k);
        if (tracer().enabled()) {
          trace_point("coin-gen", "edge", io.id(), io.rounds(),
                      "j=" + std::to_string(j) + " k=" + std::to_string(k),
                      io.stream(), io.committee());
        }
      }
    }
  }
  graph_span.close();
  TraceSpan clique_span(io, "coin-gen", "clique");
  return find_large_clique(g);
}

}  // namespace coin_gen_detail

// Generates M sealed coins. All players call in lockstep; seed coins are
// drawn from `pool` (honest pools are structurally identical, so draws
// stay aligned). Returns success=false — identically at all honest
// players — when the pool runs dry or `max_iterations` leader draws all
// land on faulty players (probability <= (t/n)^max_iterations).
template <FiniteField F, NetEndpoint Io, typename Ba = DefaultBinaryBa>
CoinGenResult<F> coin_gen(Io& io, unsigned m, CoinPool<F>& pool,
                          unsigned max_iterations = 16,
                          const Ba& ba = default_binary_ba) {
  const int n = io.n();
  const unsigned t = static_cast<unsigned>(io.t());
  const unsigned m_total = m + 1;  // index 0: blinding polynomial
  CoinGenResult<F> result;

  // Steps 1-3: n parallel Bit-Gens under one challenge.
  if (pool.empty()) return result;
  const SealedCoin<F> challenge = pool.take();
  ++result.seed_coins_used;
  TraceSpan deal_span(io, "coin-gen", "deal");
  const auto my_polys = PolyBlock<F>::random(m_total, t, io.rng());
  auto bg = bit_gen_all<F>(io, my_polys, m_total, t, challenge,
                           /*instance=*/0);
  deal_span.close();

  // Steps 9-11, with steps 4-8 moved behind the leader draw (a deviation
  // from Fig. 5, DESIGN.md §18): expose the leader coin, let the leader
  // alone find its clique and grade-cast it, vote, run BA; repeat until
  // BA decides 1.
  const unsigned clique_min = static_cast<unsigned>(n) - 2 * t;
  for (unsigned iter = 0; iter < max_iterations; ++iter) {
    if (pool.empty()) return result;
    const SealedCoin<F> leader_coin = pool.take();
    ++result.seed_coins_used;
    ++result.iterations;
    const std::string iter_detail =
        tracer().enabled() ? "iter=" + std::to_string(iter) : std::string{};
    TraceSpan leader_span(io, "coin-gen", "leader", iter_detail);
    const std::optional<F> leader_val =
        coin_expose<F>(io, leader_coin, /*instance=*/1 + iter);
    leader_span.close();
    // A failed exposure cannot happen within the fault bounds; treat it
    // as a faulty leader (nobody grade-casts, everyone votes 0 — still
    // unanimous).
    const int l = leader_val.has_value()
                      ? static_cast<int>(leader_val->to_uint() %
                                         static_cast<std::uint64_t>(n))
                      : -1;

    // Steps 4-8, leader only: find a clique in the verification graph
    // and grade-cast (C_l, {F_j}_{j in C_l}).
    std::vector<std::uint8_t> package;
    if (l == io.id()) {
      package = coin_gen_detail::encode_clique_msg<F>(
          coin_gen_detail::leader_clique<F>(io, bg.views), bg.views, t);
    }
    TraceSpan gc_span(io, "coin-gen", "gradecast", iter_detail);
    const GradeCastResult gc = grade_cast(io, l, package, /*instance=*/iter);
    gc_span.close();

    int my_vote = 0;
    std::optional<coin_gen_detail::CliqueMsg<F>> msg;
    if (gc.confidence >= 1) {
      msg = coin_gen_detail::decode_clique_msg<F>(gc.value, n, t);
      // The grade-cast carried a value but it is not a well-formed clique
      // message: the leader itself authored garbage.
      if (!msg) io.note_decode_failure(l);
    }
    if (msg && gc.confidence == 2 &&                  // (i)
        msg->clique.size() >= clique_min) {           // (ii)
      // (iii): count dealers j in C_l whose combination shares (as *I*
      // received them in Bit-Gen step 3) satisfy F_k for every k in C_l.
      unsigned good = 0;
      for (int j : msg->clique) {
        bool ok = true;
        for (int k : msg->clique) {
          const auto& combos_k = bg.views[k].combos;
          const auto it = combos_k.find(j);
          if (it == combos_k.end() ||
              msg->polys.at(k)(eval_point<F>(j)) != it->second) {
            ok = false;
            break;
          }
        }
        if (ok) ++good;
      }
      if (good >= 3 * t + 1) my_vote = 1;
    }

    TraceSpan ba_span(io, "coin-gen", "ba", iter_detail);
    const int decision = ba(io, my_vote, /*instance=*/iter);
    ba_span.close();
    if (decision != 1) continue;

    // Agreement reached on C_l. If an honest player voted 1, conf_l = 2
    // there, hence conf >= 1 (same value) here.
    if (!msg) {
      // Model violated (BA decided 1 with no honest support); fail
      // identically everywhere we can.
      return result;
    }
    TraceSpan output_span(io, "coin-gen", "output");
    result.success = true;
    result.clique = msg->clique;
    result.summed_dealers.assign(
        msg->clique.begin(),
        msg->clique.begin() +
            std::min<std::size_t>(msg->clique.size(), 3 * t + 1));

    // Qualification: my own rows satisfy F_k for every summed dealer...
    // for every clique member (condition (iii) quantifies over all of
    // C_l, and qualification must match what other players verified).
    // My combination of dealer k's row is the beta bit_gen_all already
    // computed and sent under the same challenge; a missing row (hence
    // no beta) disqualifies outright, before any evaluation.
    result.qualified =
        std::all_of(msg->clique.begin(), msg->clique.end(),
                    [&](int k) { return bg.views[k].my_combo.has_value(); });
    for (int k : msg->clique) {
      if (!result.qualified) break;
      result.qualified =
          msg->polys.at(k)(eval_point<F>(io.id())) == *bg.views[k].my_combo;
    }
    if (result.qualified) {
      result.coin_shares.assign(m, F::zero());
      // Row offset +1 skips the blinding polynomial at index 0. The
      // blocked row sum performs the same m * |S| additions as the
      // scalar h-outer/j-inner loop (addition is associative and exact,
      // so the reordering is bit-for-bit invisible).
      std::vector<const F*> rows(result.summed_dealers.size());
      for (std::size_t c = 0; c < result.summed_dealers.size(); ++c) {
        rows[c] = bg.views[result.summed_dealers[c]].my_row.data() + 1;
      }
      accumulate_rows_block<F>(rows, result.coin_shares);
    }
    return result;
  }
  return result;  // exhausted iterations: unanimous failure
}

}  // namespace dprbg
