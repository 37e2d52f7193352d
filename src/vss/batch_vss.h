// Protocol Batch-VSS (Fig. 3): verify M sharings at the cost of one.
//
// Model as in vss.h (Section 3: n >= 3t+1, broadcast assumption, one
// sealed coin available).
//
//   1. r <- Coin-Expose(k-ary coin).
//   2. P_i computes beta_i = r*alpha_iM + ... evaluated by Horner as
//      ((...(r*alpha_iM + alpha_i(M-1))r + ...)r + alpha_i1)r
//      = sum_{j=1}^{M} alpha_ij r^j.
//   3. P_i broadcasts beta_i.
//   4. Interpolate F(x) through beta_1..beta_n; accept iff deg(F) <= t.
//
// Soundness (Lemma 3): if some f_j has degree > t, acceptance requires r
// to be a root of a nonzero degree-M polynomial fixed before r was
// exposed — probability at most M/p.
//
// Costs (Lemma 4): 2 interpolations total and 2 rounds of n messages —
// *independent of M* — so the amortized cost per verified secret is
// O(1) communication and ~2k log k additions (Corollary 1).
//
// Secrecy note: the broadcast combination reveals one random linear
// combination of each player's M shares. When the shared values must stay
// unpredictable even after M-1 of them are later revealed (the coin
// use-case), the dealer includes one extra blinding polynomial in the
// batch — see Bit-Gen (coin/bitgen.h) and DESIGN.md §3. As a pure degree
// check (Problem 2) the protocol is implemented here exactly as in Fig. 3.

#pragma once

#include <optional>
#include <span>
#include <vector>

#include "common/trace.h"
#include "gf/field_concept.h"
#include "gf/field_io.h"
#include "net/endpoint.h"
#include "net/msg.h"
#include "poly/polynomial.h"
#include "poly/reed_solomon.h"
#include "sharing/shamir.h"
#include "coin/coin_expose.h"
#include "coin/sealed_coin.h"

namespace dprbg {

// Horner combination of Fig. 3 / Fig. 4: sum_{j=1..M} shares[j-1] * r^j.
template <FiniteField F>
F batch_combine(std::span<const F> shares, F r) {
  F acc = F::zero();
  for (std::size_t j = shares.size(); j-- > 0;) {
    acc = (acc + shares[j]) * r;
  }
  return acc;
}

template <FiniteField F>
struct BatchVssOutcome {
  bool accepted = false;
  // This player's M shares (row i of the share matrix), as received.
  std::vector<F> shares;
  F challenge = F::zero();
};

// Distribution (1 round) + challenge exposure (1 round) + combination
// broadcast and local decision (1 round). The dealer passes its M
// polynomials; everyone else passes an empty block. `expected_m` is the
// publicly known batch size M.
template <FiniteField F, NetEndpoint Io>
BatchVssOutcome<F> batch_vss(
    Io& io, int dealer, unsigned t, unsigned expected_m,
    const PolyBlock<F>& dealer_polys,
    const SealedCoin<F>& challenge_coin, unsigned instance = 0) {
  const std::uint32_t share_tag = make_tag(ProtoId::kBatchVss, instance, 0);
  const std::uint32_t combo_tag = make_tag(ProtoId::kBatchVss, instance, 2);
  const int n = io.n();

  // Distribution round: the dealer hands every player its row of the
  // share matrix in a single message of M field elements (size Mk bits,
  // matching Lemma 6's accounting).
  {
    TraceSpan deal(io, "batch-vss", "deal");
    if (io.id() == dealer) {
      DPRBG_CHECK(dealer_polys.size() == expected_m);
      std::vector<F> vals(expected_m);
      for (int i = 0; i < n; ++i) {
        eval_polys_block<F>(dealer_polys, eval_point<F>(i), vals);
        ByteWriter w(expected_m * F::kBytes);
        write_elem_row<F>(w, vals);
        io.send(i, share_tag, std::move(w).take());
      }
    }
  }

  // Step 1: expose the challenge (delivers the shares at the same sync;
  // the dealer committed before r became known).
  TraceSpan challenge(io, "batch-vss", "challenge");
  const std::optional<F> r_val = coin_expose<F>(io, challenge_coin, instance);
  challenge.close();

  BatchVssOutcome<F> out;
  out.shares.assign(expected_m, F::zero());
  if (const Msg* mine = io.inbox().from(dealer, share_tag)) {
    // Exactly M elements, size-validated before any allocation.
    if (auto received = decode_elem_row<F>(mine->body, expected_m)) {
      out.shares = std::move(*received);
    }
  }
  if (!r_val.has_value()) {
    io.sync();
    return out;
  }
  const F r = *r_val;
  out.challenge = r;

  // Steps 2-3: Horner combination, broadcast.
  TraceSpan combine(io, "batch-vss", "combine");
  ByteWriter w;
  write_elem(w, batch_combine<F>(out.shares, r));
  io.send_all(combo_tag, w.data());
  const Inbox& in = io.sync();
  combine.close();

  // Step 4: one interpolation (an error-correcting decode, tolerating
  // faulty announcers as in vss.h) certifies all M sharings at once.
  TraceSpan interpolate(io, "batch-vss", "interpolate");
  std::vector<PointValue<F>> points;
  for (const Msg* m : in.with_tag(combo_tag)) {
    const auto beta = decode_elem_row<F>(m->body, 1);
    if (!beta) {
      io.note_decode_failure(m->from);
      continue;
    }
    points.push_back({eval_point<F>(m->from), (*beta)[0]});
  }
  out.accepted =
      rs_decode_agreeing<F>(points, t, static_cast<std::size_t>(n) - t)
          .has_value();
  if (!out.accepted) {
    trace_point("batch-vss", "decode-fail", io.id(), io.rounds(),
                "fewer than n - t announcements on one polynomial",
                io.stream(), io.committee());
  }
  return out;
}

}  // namespace dprbg
