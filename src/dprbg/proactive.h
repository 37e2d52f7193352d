// Pro-active refresh of sealed coins — the application the paper calls
// out in Section 1.2: "one of the motivations and applications of our
// work is pro-active security (e.g., [8, 16]), which deals with settings
// where intruders are allowed to move over time. Our solution to
// multiple-coin generation can be easily adapted to this scenario."
//
// A mobile adversary that corrupts t players per epoch eventually visits
// more than t players overall; shares gathered across epochs would then
// reconstruct a still-sealed coin. The classical countermeasure
// (Herzberg-Jarecki-Krawczyk-Yung [16]) re-randomizes the sharing each
// epoch with verified *zero-secret* polynomials, erasing the old shares'
// value to the adversary.
//
// The refresh below adapts the paper's own batch trick to this job: each
// player deals a batch of M+1 zero-secret degree-t polynomials (f(0)=0,
// index 0 a zero-secret blinder), all batches are verified with ONE
// shared challenge — the combination polynomial must have degree <= t
// AND zero constant term, which by the Lemma 3 root argument certifies
// every polynomial in the batch with error <= (M+1)/p — and each coin's
// share is incremented by the first t+1 accepted dealers' contributions
// (any t+1 dealers include an honest one, so the re-randomization is
// uniform).
//
// Model: Section 3 (n >= 3t+1, broadcast for the combination values), as
// with coin_gen_broadcast; the full point-to-point treatment would reuse
// Coin-Gen's clique/grade-cast/BA machinery verbatim.
//
// The second protocol here, cross_roster_reshare, extends the same batch
// trick from "re-randomize within one roster" to "move the sharing to a
// DIFFERENT roster": epoch reconfiguration for the sharded beacon
// (beacon/beacon_failover.h), where a retiring committee hands its
// sealed CoinPool to its replacement without ever exposing the coins.

#pragma once

#include <map>
#include <span>
#include <vector>

#include "common/check.h"
#include "gf/field_concept.h"
#include "net/endpoint.h"
#include "poly/polynomial.h"
#include "coin/bitgen.h"
#include "coin/sealed_coin.h"

namespace dprbg {

// `count` uniformly random degree-<=t polynomials with zero constant
// term: x * g(x) for uniform g of degree <= t-1, drawn one polynomial
// after another.
template <FiniteField F>
PolyBlock<F> random_zero_secrets(std::size_t count, unsigned t,
                                 Chacha& rng) {
  PolyBlock<F> block(count, t);
  for (std::size_t j = 0; j < count; ++j) {
    const std::span<F> c = block.coeffs(j);
    for (unsigned i = 1; i <= t; ++i) c[i] = random_element<F>(rng);
  }
  return block;
}

template <FiniteField F>
struct RefreshResult {
  bool success = false;
  // Dealers whose zero-secret batch verified.
  std::vector<int> accepted_dealers;
  // The t+1 dealers whose contributions were added.
  std::vector<int> refreshers;
  // Refreshed coins (same values as before, fresh sharings).
  std::vector<SealedCoin<F>> coins;
};

// Refreshes the sharings of `coins` in place-value terms: the coin
// values are unchanged, the shares are re-randomized. 2 rounds, one
// challenge coin. All players pass their views of the same coins in the
// same order.
template <FiniteField F, NetEndpoint Io>
RefreshResult<F> proactive_refresh(Io& io,
                                   std::span<const SealedCoin<F>> coins,
                                   const SealedCoin<F>& challenge_coin,
                                   unsigned instance = 0) {
  const unsigned t = static_cast<unsigned>(io.t());
  DPRBG_CHECK(io.n() >= static_cast<int>(3 * t + 1));
  const unsigned m = static_cast<unsigned>(coins.size());
  const unsigned m_total = m + 1;  // zero-secret blinder at index 0

  const auto my_polys = random_zero_secrets<F>(m_total, t, io.rng());
  const auto bg =
      bit_gen_all<F>(io, my_polys, m_total, t, challenge_coin, instance);

  RefreshResult<F> result;
  if (!bg.challenge.has_value()) return result;
  for (int dealer = 0; dealer < io.n(); ++dealer) {
    const auto& poly = bg.views[dealer].poly;
    // Zero-secret batches must combine to a polynomial with F(0) = 0:
    // F(0) = sum_j r^j f_j(0), and a nonzero f_j(0) survives into a
    // nonzero degree-(M+1) polynomial in r with probability 1 - (M+1)/p.
    if (poly.has_value() && (*poly)(F::zero()).is_zero()) {
      result.accepted_dealers.push_back(dealer);
    }
  }
  if (result.accepted_dealers.size() < t + 1) return result;
  result.refreshers.assign(result.accepted_dealers.begin(),
                           result.accepted_dealers.begin() + t + 1);
  for (int dealer : result.refreshers) {
    if (bg.views[dealer].my_row.empty()) return result;
  }

  result.coins.reserve(m);
  bool holds_all = true;
  for (const auto& c : coins) holds_all = holds_all && c.share.has_value();
  if (holds_all) {
    // Share-holding players (the common case) sum the refreshers' rows
    // in one blocked pass; the add count per coin is the same t+1 adds
    // the scalar loop performs.
    std::vector<const F*> row_ptrs(result.refreshers.size());
    for (std::size_t c = 0; c < result.refreshers.size(); ++c) {
      // Row offset +1 skips the zero-secret blinder at index 0.
      row_ptrs[c] = bg.views[result.refreshers[c]].my_row.data() + 1;
    }
    std::vector<F> delta(m);
    accumulate_rows_block<F>(row_ptrs, delta);
    for (unsigned h = 0; h < m; ++h) {
      SealedCoin<F> refreshed = coins[h];
      refreshed.share = *refreshed.share + delta[h];
      result.coins.push_back(refreshed);
    }
  } else {
    for (unsigned h = 0; h < m; ++h) {
      SealedCoin<F> refreshed = coins[h];
      if (refreshed.share.has_value()) {
        F delta = F::zero();
        for (int dealer : result.refreshers) {
          delta = delta + bg.views[dealer].my_row[h + 1];
        }
        refreshed.share = *refreshed.share + delta;
      }
      result.coins.push_back(refreshed);
    }
  }
  result.success = true;
  return result;
}

template <FiniteField F>
struct ReshareResult {
  bool success = false;
  // Old-roster dealers whose reshare batch verified (degree <= t_new).
  std::vector<int> accepted_dealers;
  // The first t_old+1 accepted dealers, whose constant terms determine
  // the migrated secrets.
  std::vector<int> resharers;
  // New members: the migrated coins (same values, degree-t_new sharings
  // over the NEW roster). Old members: shareless views of the same coins
  // — their old shares are dead after the epoch and must not be reused.
  std::vector<SealedCoin<F>> coins;
};

// Cross-roster reshare: moves the sharings of `coins` from an old roster
// to a new one without reconstructing any coin. Runs over a BRIDGE
// committee holding the union of both rosters, with the old roster's
// members occupying union-local ids 0..n_old-1 and the new roster's
// members n_old..n-1 (new-local id j = union id n_old + j).
//
// Protocol (2 rounds, one challenge coin):
//   Dealer i (old member holding shares of all m coins): draws one
//   uniform degree-t_new blinder plus, per coin h, a uniform degree-t_new
//   polynomial with constant term = its OWN share f_h(x_i); sends new
//   member j the batch evaluated at j's NEW-local point.      [1 round]
//   All:    r <- Coin-Expose(challenge) on the union (new members hold
//           no share of the challenge but still learn it).
//   New j:  sends everyone the Horner combination per dealer. [1 round]
//   All:    Berlekamp-Welch each dealer's combination over the NEW
//           roster's points; accepted iff deg <= t_new. By the Lemma 3
//           root argument one challenge certifies the whole batch with
//           error <= (m+1)/p.
//   New j:  for the first t_old+1 accepted dealers, Lagrange-combines
//           their rows at 0 over the OLD points: g_h = sum_i lambda_i
//           h_{i,h} has degree <= t_new and g_h(0) = f_h(0) exactly
//           (t_old+1 points determine the degree-t_old f_h), so j's new
//           share is sum_i lambda_i h_{i,h}(x_j).
//
// Secrecy: every g_h is blinded by the honest resharers' fresh
// randomness, so <= t_new new members plus the retired old shares reveal
// nothing (HJKY-style, as with proactive_refresh). Same Section 3 model
// caveat: combination values travel point-to-point where the paper
// assumes broadcast; the full treatment would reuse Coin-Gen's
// clique/grade-cast/BA machinery. Requires n_new >= 3t_new+1 and
// t_old+1 <= n_old surviving dealers.
//
// All players pass their views of the same coins in the same order; new
// members (who hold no old shares) pass shareless views with the correct
// degree.
template <FiniteField F, NetEndpoint Io>
ReshareResult<F> cross_roster_reshare(Io& io, int n_old, unsigned t_new,
                                      std::span<const SealedCoin<F>> coins,
                                      const SealedCoin<F>& challenge_coin,
                                      unsigned instance = 0) {
  ReshareResult<F> result;
  const int n_new = io.n() - n_old;
  DPRBG_CHECK(n_old >= 1);
  DPRBG_CHECK(n_new >= static_cast<int>(3 * t_new + 1));
  const unsigned m = static_cast<unsigned>(coins.size());
  DPRBG_CHECK(m >= 1);
  const unsigned t_old = coins[0].degree;
  for (const auto& c : coins) DPRBG_CHECK(c.degree == t_old);
  DPRBG_CHECK(static_cast<int>(t_old + 1) <= n_old);
  const unsigned m_total = m + 1;  // blinder at index 0

  const std::uint32_t row_tag = make_tag(ProtoId::kReshare, instance, 0);
  const std::uint32_t combo_tag = make_tag(ProtoId::kReshare, instance, 1);
  const bool old_side = io.id() < n_old;

  // Round A: old-side dealers distribute rows to the new roster (a
  // dealer participates only if it holds shares of ALL m coins — partial
  // holders would leak which coins they hold through presence patterns).
  {
    TraceSpan deal(io, "reshare", "deal");
    bool holds_all = old_side;
    for (const auto& c : coins) holds_all = holds_all && c.share.has_value();
    if (holds_all) {
      // Blinder at index 0, then one polynomial per coin whose constant
      // term is overwritten with this dealer's share (the draws of
      // Polynomial::random_with_secret, in the same order).
      auto polys = PolyBlock<F>::random(m_total, t_new, io.rng());
      for (unsigned h = 0; h < m; ++h) {
        polys.coeffs(h + 1)[0] = *coins[h].share;
      }
      std::vector<F> vals(m_total);
      for (int j = 0; j < n_new; ++j) {
        eval_polys_block<F>(polys, eval_point<F>(j), vals);
        ByteWriter w(m_total * F::kBytes);
        write_elem_row<F>(w, vals);
        io.send(n_old + j, row_tag, std::move(w).take());
      }
    }
  }

  // The challenge exposure rides the same round as the rows; the dealers
  // committed before anyone could know r.
  TraceSpan challenge(io, "reshare", "challenge");
  const std::optional<F> r_val = coin_expose<F>(io, challenge_coin, instance);
  challenge.close();

  // New members harvest their rows (indexed by dealer = old-local id).
  std::vector<std::vector<F>> rows(static_cast<std::size_t>(n_old));
  if (!old_side) {
    for (int dealer = 0; dealer < n_old; ++dealer) {
      if (const Msg* msg = io.inbox().from(dealer, row_tag)) {
        if (auto row = decode_elem_row<F>(msg->body, m_total)) {
          rows[static_cast<std::size_t>(dealer)] = std::move(*row);
        }
      }
    }
  }
  if (!r_val.has_value()) {
    io.sync();
    return result;
  }

  // Round B: new members send everyone the batched combinations (the
  // bit_gen_all wire format: presence flag + beta per dealer). Old
  // members receive them too, so both sides agree on the accepted set.
  TraceSpan combine(io, "reshare", "combine");
  if (!old_side) {
    // Blocked Horner combinations over the present dealers' rows, same
    // wire format and per-row op counts as the scalar loop (bitgen.h has
    // the same shape).
    std::vector<const F*> row_ptrs(static_cast<std::size_t>(n_old));
    std::size_t present = 0;
    for (int dealer = 0; dealer < n_old; ++dealer) {
      const auto& row = rows[static_cast<std::size_t>(dealer)];
      if (!row.empty()) row_ptrs[present++] = row.data();
    }
    std::vector<F> betas(present);
    batch_combine_block<F>(
        std::span<const F* const>(row_ptrs.data(), present), m_total,
        *r_val, betas);
    ByteWriter w(static_cast<std::size_t>(n_old) * (1 + F::kBytes));
    std::size_t next_beta = 0;
    for (int dealer = 0; dealer < n_old; ++dealer) {
      const bool have = !rows[static_cast<std::size_t>(dealer)].empty();
      w.u8(have ? 1 : 0);
      write_elem(w, have ? betas[next_beta++] : F::zero());
    }
    io.send_all(combo_tag, w.data());
  }
  const Inbox& in = io.sync();
  combine.close();

  // Decode each dealer's combination over the NEW roster's eval points:
  // combos are keyed by NEW-local sender id so decode_combination's
  // eval_point(sender) lands on the points the dealers evaluated at.
  TraceSpan decode(io, "reshare", "decode");
  std::vector<std::map<int, F>> combos(static_cast<std::size_t>(n_old));
  for (const Msg* msg : in.with_tag(combo_tag)) {
    if (msg->from < n_old) continue;  // only the new roster combines
    const auto batch = bitgen_detail::decode_combo_batch<F>(msg->body, n_old);
    if (!batch) {
      // malformed: drop sender from every instance, and score it
      io.note_decode_failure(msg->from);
      continue;
    }
    for (int dealer = 0; dealer < n_old; ++dealer) {
      if ((*batch)[dealer]) {
        combos[static_cast<std::size_t>(dealer)].emplace(
            msg->from - n_old, *(*batch)[dealer]);
      }
    }
  }
  for (int dealer = 0; dealer < n_old; ++dealer) {
    const auto poly = bitgen_detail::decode_combination<F>(
        combos[static_cast<std::size_t>(dealer)], n_new, t_new);
    if (poly.has_value()) result.accepted_dealers.push_back(dealer);
  }
  if (result.accepted_dealers.size() < t_old + 1) return result;
  result.resharers.assign(result.accepted_dealers.begin(),
                          result.accepted_dealers.begin() + t_old + 1);

  result.coins.reserve(m);
  if (old_side) {
    // The old shares are now dead: the new roster holds the live
    // sharing. Old members keep shareless views (they still learn coin
    // values at expose time, as any non-holder does).
    for (unsigned h = 0; h < m; ++h) {
      result.coins.push_back(SealedCoin<F>{std::nullopt, t_new});
    }
    result.success = true;
    return result;
  }

  for (int dealer : result.resharers) {
    if (rows[static_cast<std::size_t>(dealer)].empty()) return result;
  }
  // Lagrange coefficients at 0 over the resharers' OLD eval points:
  // lambda_i = prod_{k != i} x_k / (x_k - x_i).
  std::vector<F> lambda;
  lambda.reserve(result.resharers.size());
  for (std::size_t i = 0; i < result.resharers.size(); ++i) {
    const F xi = eval_point<F>(result.resharers[i]);
    F li = F::one();
    for (std::size_t k = 0; k < result.resharers.size(); ++k) {
      if (k == i) continue;
      const F xk = eval_point<F>(result.resharers[k]);
      li = li * (xk / (xk - xi));
    }
    lambda.push_back(li);
  }
  for (unsigned h = 0; h < m; ++h) {
    F share = F::zero();
    for (std::size_t i = 0; i < result.resharers.size(); ++i) {
      const auto& row =
          rows[static_cast<std::size_t>(result.resharers[i])];
      share = share + lambda[i] * row[h + 1];
    }
    result.coins.push_back(SealedCoin<F>{share, t_new});
  }
  result.success = true;
  return result;
}

}  // namespace dprbg
