// Baseline: "from-scratch" shared-coin generation.
//
// Section 4: "A straightforward way to generate a coin would be to
// interpolate a number of polynomials which at least equals the number of
// the faults to be tolerated. Coins generated this way, however, would
// still be highly expensive. In this section we show how to achieve this
// with just one polynomial interpolation."
//
// This file implements that straightforward way, as the cost baseline of
// experiment E10: every player deals a fresh degree-t sharing of a random
// secret, all sharings are immediately opened, each receiver decodes
// every dealer's polynomial separately (n Berlekamp-Welch interpolations
// per coin!), and the coin is the sum of the secrets of the dealers whose
// opening decoded cleanly with >= n - t support.
//
// Cost per coin: n interpolations and ~2n^2 messages of size k — against
// the D-PRBG's amortized 1 interpolation and ~n messages (Corollary 3).
//
// Unanimity caveat (part of why this baseline is inferior, not a bug): a
// Byzantine dealer that equivocates its opening can make honest players
// disagree on whether its decode "succeeded", splitting the coin — the
// exact problem Coin-Gen's clique/grade-cast/BA machinery exists to
// solve. The benchmark runs it fault-free to measure its best-case cost.

#pragma once

#include <optional>
#include <vector>

#include "gf/field_concept.h"
#include "gf/field_io.h"
#include "net/endpoint.h"
#include "net/msg.h"
#include "poly/polynomial.h"
#include "poly/reed_solomon.h"
#include "sharing/shamir.h"

namespace dprbg {

// Generates one shared coin from scratch. 2 rounds: deal, open.
template <FiniteField F, NetEndpoint Io>
std::optional<F> naive_coin(Io& io, unsigned t, unsigned instance = 0) {
  const std::uint32_t deal_tag =
      make_tag(ProtoId::kBaselineCoin, instance, 4);
  const std::uint32_t open_tag =
      make_tag(ProtoId::kBaselineCoin, instance, 5);
  const int n = io.n();

  // Round 1: every player deals a fresh degree-t sharing.
  const auto my_poly = Polynomial<F>::random(t, io.rng());
  for (int i = 0; i < n; ++i) {
    ByteWriter w;
    write_elem(w, my_poly(eval_point<F>(i)));
    io.send(i, deal_tag, std::move(w).take());
  }
  io.sync();
  std::vector<std::optional<F>> my_shares(n);
  for (int dealer = 0; dealer < n; ++dealer) {
    if (const Msg* m = io.inbox().from(dealer, deal_tag)) {
      if (const auto share = decode_elem_row<F>(m->body, 1)) {
        my_shares[dealer] = (*share)[0];
      }
    }
  }

  // Round 2: open everything — one batched message with my share of every
  // dealer's polynomial.
  {
    ByteWriter w;
    for (int dealer = 0; dealer < n; ++dealer) {
      w.u8(my_shares[dealer].has_value() ? 1 : 0);
      write_elem(w, my_shares[dealer].value_or(F::zero()));
    }
    io.send_all(open_tag, w.data());
  }
  const Inbox& in = io.sync();

  // n separate decodes: the cost the paper eliminates.
  std::vector<std::vector<PointValue<F>>> points(n);
  for (const Msg* m : in.with_tag(open_tag)) {
    // Exact-size batch validation before parsing; a malformed batch is
    // rejected wholesale rather than contributing a valid-looking prefix.
    if (m->body.size() !=
        static_cast<std::size_t>(n) * (1 + F::kBytes)) {
      continue;
    }
    ByteReader rd(m->body);
    for (int dealer = 0; dealer < n; ++dealer) {
      const bool present = rd.u8() != 0;
      const F share = read_elem<F>(rd);
      if (present) {
        points[dealer].push_back({eval_point<F>(m->from), share});
      }
    }
  }
  F coin = F::zero();
  bool any = false;
  for (int dealer = 0; dealer < n; ++dealer) {
    const auto decoded = rs_decode_agreeing<F>(
        points[dealer], t, static_cast<std::size_t>(n - io.t()));
    if (!decoded) continue;
    coin = coin + (*decoded)(F::zero());
    any = true;
  }
  if (!any) return std::nullopt;
  return coin;
}

}  // namespace dprbg
