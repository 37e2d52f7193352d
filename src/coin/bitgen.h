// Protocol Bit-Gen (Fig. 4): broadcast-free batch sharing of sealed bits.
//
// Model (Section 4): n >= 6t + 1, point-to-point channels only, access to
// sealed random k-ary coins.
//
//   Dealer: picks M_total random degree-t polynomials f_1..f_M and sends
//           player P_i the row (f_1(i), ..., f_M(i)).          [1 round]
//   All:    r <- Coin-Expose(k-ary coin).
//   P_i:    beta_i = sum_j alpha_ij r^j (Horner), sent to ALL players
//           point-to-point.                                     [1 round]
//   P_i:    S = set of received betas; Berlekamp-Welch a polynomial F
//           with deg(F) <= t agreeing with >= n - t values of S;
//           output (F, S) or (bottom, S).
//
// Without a broadcast channel players may disagree on whether a given
// dealer's run succeeded — that is resolved by Coin-Gen's clique +
// grade-cast + BA machinery (coin_gen.h); Bit-Gen itself only produces
// each player's local view.
//
// Round layout: the dealer's rows travel in the same round as the
// challenge-coin shares. This is sound — the dealer commits to its rows
// before anyone (itself included) can know r — and matches Lemma 6's
// message accounting (n messages of size Mk for the rows, n^2 of size k
// for the coin, n^2 of size k for the combinations).
//
// Blinding: callers that later *reveal* some of the shared secrets
// (Coin-Gen) prepend one extra random polynomial to the batch, so the
// published combination beta does not reduce the adversary's uncertainty
// about the usable secrets (DESIGN.md §3). Bit-Gen itself is agnostic:
// it verifies whatever batch it is given.

#pragma once

#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/trace.h"
#include "gf/field_concept.h"
#include "gf/field_io.h"
#include "net/endpoint.h"
#include "net/msg.h"
#include "poly/interpolate.h"
#include "poly/polynomial.h"
#include "poly/reed_solomon.h"
#include "sharing/shamir.h"
#include "vss/batch_vss.h"
#include "coin/coin_expose.h"
#include "coin/sealed_coin.h"

namespace dprbg {

// One player's local view of one dealer's Bit-Gen instance.
template <FiniteField F>
struct BitGenView {
  // The row of shares this player received from the dealer (size M_total),
  // or empty when the dealer sent nothing/garbage to us.
  std::vector<F> my_row;
  // This player's own combination share beta = batch_combine(my_row, r),
  // as sent in step 3; nullopt when my_row is empty or r did not expose.
  // Coin-Gen's qualification compares against it instead of recomputing.
  std::optional<F> my_combo;
  // S: the combination shares received in step 3, keyed by sender.
  std::map<int, F> combos;
  // F(x): the decoded combined polynomial, or nullopt for "bottom".
  std::optional<Polynomial<F>> poly;

  [[nodiscard]] bool accepted() const { return poly.has_value(); }
};

namespace bitgen_detail {

// Decode step (Fig. 4 step 5): find deg<=t F agreeing with >= n - t of
// the received combination shares (syndrome first, poly/reed_solomon.h).
template <FiniteField F>
std::optional<Polynomial<F>> decode_combination(
    const std::map<int, F>& combos, int n, unsigned t) {
  std::vector<PointValue<F>> points;
  points.reserve(combos.size());
  for (const auto& [sender, beta] : combos) {
    points.push_back({eval_point<F>(sender), beta});
  }
  const std::size_t need =
      static_cast<std::size_t>(n) - static_cast<std::size_t>(t);
  if (points.size() < need) return std::nullopt;
  const unsigned max_errors = std::min<unsigned>(
      static_cast<unsigned>(points.size() - need),
      static_cast<unsigned>((points.size() - t - 1) / 2));
  auto poly = rs_decode<F>(points, t, max_errors);
  if (!poly) return std::nullopt;
  std::size_t agreements = 0;
  for (const auto& pv : points) {
    if ((*poly)(pv.x) == pv.y) ++agreements;
  }
  if (agreements < need) return std::nullopt;
  return poly;
}

// Batched combination message (bit_gen_all step 3): per dealer, one
// presence flag + one field element. Exact-size validation up front; a
// malformed batch rejects as a whole (the sender is dropped from every
// instance), so a Byzantine sender cannot contribute to some instances
// and corrupt others within one message.
template <FiniteField F>
std::optional<std::vector<std::optional<F>>> decode_combo_batch(
    std::span<const std::uint8_t> bytes, int n) {
  if (bytes.size() != static_cast<std::size_t>(n) * (1 + F::kBytes)) {
    return std::nullopt;
  }
  ByteReader rd(bytes);
  std::vector<std::optional<F>> out(n);
  for (int dealer = 0; dealer < n; ++dealer) {
    const bool present = rd.u8() != 0;
    const F beta = read_elem<F>(rd);
    if (present) out[dealer] = beta;
  }
  if (!rd.done()) return std::nullopt;
  return out;
}

}  // namespace bitgen_detail

// Single-dealer Bit-Gen, exactly Fig. 4 (used standalone by tests and the
// E6 benchmark). The dealer passes its M_total polynomials; everyone else
// passes an empty block. Consumes 2 rounds.
template <FiniteField F, NetEndpoint Io>
BitGenView<F> bit_gen_single(Io& io, int dealer, unsigned m_total,
                             unsigned t,
                             const PolyBlock<F>& dealer_polys,
                             const SealedCoin<F>& challenge_coin,
                             unsigned instance = 0) {
  const std::uint32_t row_tag = make_tag(ProtoId::kBitGen, instance, 0);
  const std::uint32_t combo_tag = make_tag(ProtoId::kBitGen, instance, 1);
  const int n = io.n();

  // Dealer step 1: distribute rows.
  {
    TraceSpan deal(io, "bitgen", "deal");
    if (io.id() == dealer) {
      DPRBG_CHECK(dealer_polys.size() == m_total);
      std::vector<F> vals(m_total);
      for (int i = 0; i < n; ++i) {
        eval_polys_block<F>(dealer_polys, eval_point<F>(i), vals);
        ByteWriter w(m_total * F::kBytes);
        write_elem_row<F>(w, vals);
        io.send(i, row_tag, std::move(w).take());
      }
    }
  }

  // Step 2: expose the challenge (same round as row delivery).
  TraceSpan challenge(io, "bitgen", "challenge");
  const std::optional<F> r_val = coin_expose<F>(io, challenge_coin, instance);
  challenge.close();

  BitGenView<F> view;
  if (const Msg* mine = io.inbox().from(dealer, row_tag)) {
    if (auto row = decode_elem_row<F>(mine->body, m_total)) {
      view.my_row = std::move(*row);
    }
  }
  if (!r_val.has_value()) {
    io.sync();
    return view;
  }

  // Step 3: send the Horner combination to all players.
  TraceSpan combine(io, "bitgen", "combine");
  if (!view.my_row.empty()) {
    view.my_combo = batch_combine<F>(view.my_row, *r_val);
    ByteWriter w;
    write_elem(w, *view.my_combo);
    io.send_all(combo_tag, w.data());
  }
  const Inbox& in = io.sync();
  combine.close();

  // Steps 4-5: collect S and decode.
  TraceSpan decode(io, "bitgen", "decode");
  for (const Msg* m : in.with_tag(combo_tag)) {
    const auto beta = decode_elem_row<F>(m->body, 1);
    if (!beta) {
      io.note_decode_failure(m->from);
      continue;
    }
    view.combos.emplace(m->from, (*beta)[0]);
  }
  view.poly = bitgen_detail::decode_combination<F>(view.combos, n, t);
  if (!view.poly && tracer().enabled()) {
    trace_point("bitgen", "decode-fail", io.id(), io.rounds(),
                "dealer=" + std::to_string(dealer), io.stream(),
                io.committee());
  }
  return view;
}

// All n Bit-Gen instances in parallel with one shared challenge coin
// (Fig. 5 steps 1-3: "Participate in all invocations of Bit-Gen_j ...
// using the same coin r for all invocations"). Each player deals the
// polynomials in the block `my_polys` (size M_total). Combination shares
// for all n instances are batched into a single message per recipient,
// giving the n^2 messages of size kn of Theorem 2. Consumes 2 rounds.
template <FiniteField F>
struct BitGenAllOutcome {
  std::optional<F> challenge;
  std::vector<BitGenView<F>> views;  // indexed by dealer
};

template <FiniteField F, NetEndpoint Io>
BitGenAllOutcome<F> bit_gen_all(Io& io,
                                const PolyBlock<F>& my_polys,
                                unsigned m_total, unsigned t,
                                const SealedCoin<F>& challenge_coin,
                                unsigned instance = 0) {
  const std::uint32_t row_tag = make_tag(ProtoId::kBitGen, instance, 0);
  const std::uint32_t combo_tag = make_tag(ProtoId::kBitGen, instance, 1);
  const int n = io.n();
  DPRBG_CHECK(my_polys.size() == m_total);

  // Everyone deals (step 1 of its own instance).
  {
    TraceSpan deal(io, "bitgen", "deal");
    std::vector<F> vals(m_total);
    for (int i = 0; i < n; ++i) {
      eval_polys_block<F>(my_polys, eval_point<F>(i), vals);
      ByteWriter w(m_total * F::kBytes);
      write_elem_row<F>(w, vals);
      io.send(i, row_tag, std::move(w).take());
    }
  }

  BitGenAllOutcome<F> out;
  out.views.resize(n);
  TraceSpan challenge(io, "bitgen", "challenge");
  const std::optional<F> r_val = coin_expose<F>(io, challenge_coin, instance);
  challenge.close();
  for (int dealer = 0; dealer < n; ++dealer) {
    if (const Msg* m = io.inbox().from(dealer, row_tag)) {
      if (auto row = decode_elem_row<F>(m->body, m_total)) {
        out.views[dealer].my_row = std::move(*row);
      }
    }
  }
  if (!r_val.has_value()) {
    io.sync();
    return out;
  }
  out.challenge = r_val;

  // Batched combination message: one presence flag + beta per dealer.
  // The Horner combinations for all present dealers run through the
  // blocked kernel (one SoA pass over the share matrix); wire format and
  // per-row op counts are identical to the scalar per-dealer loop.
  TraceSpan combine(io, "bitgen", "combine");
  {
    std::vector<const F*> rows(n);
    std::size_t present = 0;
    for (int dealer = 0; dealer < n; ++dealer) {
      const auto& row = out.views[dealer].my_row;
      if (!row.empty()) rows[present++] = row.data();
    }
    std::vector<F> betas(present);
    batch_combine_block<F>(std::span<const F* const>(rows.data(), present),
                           m_total, *r_val, betas);
    ByteWriter w(static_cast<std::size_t>(n) * (1 + F::kBytes));
    std::size_t next_beta = 0;
    for (int dealer = 0; dealer < n; ++dealer) {
      auto& view = out.views[dealer];
      if (!view.my_row.empty()) view.my_combo = betas[next_beta++];
      w.u8(view.my_combo ? 1 : 0);
      write_elem(w, view.my_combo.value_or(F::zero()));
    }
    io.send_all(combo_tag, w.data());
  }
  const Inbox& in = io.sync();
  combine.close();

  TraceSpan decode(io, "bitgen", "decode");
  for (const Msg* m : in.with_tag(combo_tag)) {
    const auto batch = bitgen_detail::decode_combo_batch<F>(m->body, n);
    if (!batch) {
      // malformed: drop the sender from every instance, and score it
      io.note_decode_failure(m->from);
      continue;
    }
    for (int dealer = 0; dealer < n; ++dealer) {
      if ((*batch)[dealer]) {
        out.views[dealer].combos.emplace(m->from, *(*batch)[dealer]);
      }
    }
  }
  for (int dealer = 0; dealer < n; ++dealer) {
    out.views[dealer].poly = bitgen_detail::decode_combination<F>(
        out.views[dealer].combos, n, t);
    if (!out.views[dealer].poly && tracer().enabled()) {
      trace_point("bitgen", "decode-fail", io.id(), io.rounds(),
                  "dealer=" + std::to_string(dealer), io.stream(),
                  io.committee());
    }
  }
  return out;
}

}  // namespace dprbg
