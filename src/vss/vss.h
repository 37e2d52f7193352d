// Protocol VSS (Fig. 2): verifiable secret sharing of a single secret.
//
// Model (Section 3): n >= 3t + 1, broadcast channel available. The
// broadcast channel is an *assumption* of this section (Section 4 removes
// it); we realize it as send-to-all — protocols in this file may only be
// run with adversaries that respect the broadcast abstraction (no
// equivocation on broadcast tags). Access to one sealed random k-ary coin
// is assumed, "a realistic assumption in the presence of a D-PRBG".
//
//   1. The dealer D shares f(x) (the secret sharing under test) and an
//      additional blinding polynomial g(x), so each player P_i holds
//      alpha_i = f(i) and gamma_i = g(i).
//   2. r <- Coin-Expose(k-ary coin).
//   3. P_i broadcasts beta_i = alpha_i + r * gamma_i.
//   4. Interpolate F(x) through beta_1..beta_n; accept iff deg(F) <= t.
//
// Soundness (Lemma 1): if no degree-<=t polynomial matches the honest
// shares, acceptance requires the dealer to have guessed -a_j / r before
// r was exposed — probability at most 1/p.
//
// Costs (Lemma 2): 2 polynomial interpolations (one here, one inside
// Coin-Expose), 2 rounds of n messages of size k each.

#pragma once

#include <optional>
#include <vector>

#include "common/trace.h"
#include "gf/field_concept.h"
#include "gf/field_io.h"
#include "net/endpoint.h"
#include "net/msg.h"
#include "poly/berlekamp_welch.h"
#include "poly/polynomial.h"
#include "sharing/shamir.h"
#include "coin/coin_expose.h"
#include "coin/sealed_coin.h"

namespace dprbg {

template <FiniteField F>
struct VssOutcome {
  // Unanimous accept/reject (under the broadcast assumption all honest
  // players decide identically).
  bool accepted = false;
  // This player's share alpha_i of the secret (meaningful when accepted).
  F share = F::zero();
  // The challenge used (exposed seed coin), for diagnostics.
  F challenge = F::zero();
};

// Runs the full protocol: share distribution (1 round), challenge
// exposure (1 round), combination broadcast + local decision (1 round).
// `dealer_poly` must be set iff io.id() == dealer; a *cheating* dealer
// passes a polynomial of degree > t (or sends inconsistent shares via a
// custom program instead of calling this function).
template <FiniteField F, NetEndpoint Io>
VssOutcome<F> vss_share_and_verify(
    Io& io, int dealer, unsigned t,
    const std::optional<Polynomial<F>>& dealer_poly,
    const SealedCoin<F>& challenge_coin, unsigned instance = 0) {
  const std::uint32_t share_tag = make_tag(ProtoId::kVss, instance, 0);
  const std::uint32_t combo_tag = make_tag(ProtoId::kVss, instance, 2);
  const int n = io.n();

  // Step 1: dealer distributes alpha_i = f(i) and gamma_i = g(i).
  {
    TraceSpan deal(io, "vss", "deal");
    if (io.id() == dealer) {
      DPRBG_CHECK(dealer_poly.has_value());
      const Polynomial<F>& f = *dealer_poly;
      const Polynomial<F> g = Polynomial<F>::random(t, io.rng());
      for (int i = 0; i < n; ++i) {
        const F x = eval_point<F>(i);
        ByteWriter w(2 * F::kBytes);
        write_elem(w, f(x));
        write_elem(w, g(x));
        io.send(i, share_tag, std::move(w).take());
      }
    }
  }

  // Step 2: expose the challenge coin (consumes one round; the share
  // messages land at this sync as well).
  // Note ordering: the dealer committed to f and g in the round *before*
  // r is revealed — the crux of Lemma 1.
  F alpha = F::zero();
  F gamma = F::zero();
  {
    // Both the share delivery and the coin shares arrive at the next
    // sync; coin_expose performs it.
    TraceSpan challenge(io, "vss", "challenge");
    const std::optional<F> r_val =
        coin_expose<F>(io, challenge_coin, instance);
    challenge.close();
    const Msg* mine = io.inbox().from(dealer, share_tag);
    if (mine != nullptr) {
      // Exactly (alpha, gamma), size-validated before reading.
      if (const auto pair = decode_elem_row<F>(mine->body, 2)) {
        alpha = (*pair)[0];
        gamma = (*pair)[1];
      }
    }
    if (!r_val.has_value()) {
      // Seed coin failed to expose: abort-reject (cannot happen within the
      // model's fault bounds).
      io.sync();  // keep lockstep with players broadcasting below
      return {};
    }
    const F r = *r_val;

    // Step 3: broadcast beta_i = alpha_i + r * gamma_i.
    TraceSpan respond(io, "vss", "respond");
    ByteWriter w;
    write_elem(w, alpha + r * gamma);
    io.send_all(combo_tag, w.data());
    const Inbox& in = io.sync();
    respond.close();
    TraceSpan interpolate(io, "vss", "interpolate");

    // Step 4: interpolate through the broadcast values; accept iff a
    // degree-<=t polynomial explains all honest contributions. Faulty
    // players may broadcast garbage or stay silent, so we decode with
    // Berlekamp-Welch tolerating up to t errors and require agreement
    // with at least n - t of the announced points (n >= 3t+1 makes the
    // decoding unambiguous).
    std::vector<PointValue<F>> points;
    for (const Msg* m : in.with_tag(combo_tag)) {
      const auto beta = decode_elem_row<F>(m->body, 1);
      if (!beta) {
        io.note_decode_failure(m->from);
        continue;
      }
      points.push_back({eval_point<F>(m->from), (*beta)[0]});
    }
    VssOutcome<F> out;
    out.challenge = r;
    out.share = alpha;
    if (points.size() < static_cast<std::size_t>(n - static_cast<int>(t))) {
      return out;  // not enough announcements to certify anything
    }
    const unsigned max_errors = std::min(
        static_cast<unsigned>(io.t()),
        static_cast<unsigned>((points.size() - t - 1) / 2));
    const auto decoded = berlekamp_welch<F>(points, t, max_errors);
    if (!decoded) {
      trace_point("vss", "decode-fail", io.id(), io.rounds(),
                  "berlekamp-welch failed", io.stream(), io.committee());
      return out;
    }
    // Require the decoded polynomial to explain >= n - t announcements.
    unsigned agreements = 0;
    for (const auto& pv : points) {
      if ((*decoded)(pv.x) == pv.y) ++agreements;
    }
    out.accepted =
        agreements >= static_cast<unsigned>(n) - t;
    return out;
  }
}

}  // namespace dprbg
