// Protocol Coin-Expose (Fig. 6): reveal a sealed coin.
//
//   1. Every player holding a (valid) share of coin h sends it to all
//      players. (When the coin came from Coin-Gen, the share is the
//      pre-combined sigma_i = sum_{j in S} alpha_{i,j,h}; the sum over the
//      3t+1 contributing dealers was taken when the batch was stored.)
//   2. Everyone interpolates a polynomial F(x) through the received shares
//      using the Berlekamp-Welch decoder — syndrome first
//      (poly/reed_solomon.h): when the shares already lie on one
//      degree-t polynomial, F(0) is read off cached Lagrange weights.
//   3. The k-ary coin is F(0); the binary coin is F(0) mod 2.
//
// Costs (Section 3.1): n additions and a single polynomial interpolation
// per player; n messages of size k per exposing player.
//
// Unanimity: with at most t faulty players, at least (#senders - t) of the
// received points are correct and lie on the degree-t sharing polynomial.
// Berlekamp-Welch returns that unique polynomial for every receiver as
// long as points >= degree + 2t + 1, no matter which garbage the faulty
// players send (even different garbage to different receivers).

#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/trace.h"
#include "gf/field_concept.h"
#include "gf/field_io.h"
#include "net/endpoint.h"
#include "net/msg.h"
#include "poly/reed_solomon.h"
#include "sharing/shamir.h"
#include "coin/sealed_coin.h"

namespace dprbg {

// Runs one round. All players must call this in lockstep (it performs
// exactly one sync()). `instance` disambiguates parallel exposures.
// Returns the coin value, or nullopt when decoding fails (possible only
// when the coin's guarantees are violated, e.g. fewer than degree + 2t + 1
// honest share-holders).
template <FiniteField F, NetEndpoint Io>
std::optional<F> coin_expose(Io& io, const SealedCoin<F>& coin,
                             unsigned instance = 0) {
  TraceSpan span(io, "coin-expose", "expose",
                 tracer().enabled() ? "instance=" + std::to_string(instance)
                                    : std::string{});
  const std::uint32_t tag = make_tag(ProtoId::kCoinExpose, instance, 0);
  if (coin.share.has_value()) {
    ByteWriter w;
    write_elem(w, *coin.share);
    io.send_all(tag, w.data());
  }
  const Inbox& in = io.sync();

  // One slot per player; points past n are dropped.
  std::vector<PointValue<F>> points(static_cast<std::size_t>(io.n()));
  std::size_t n_points = 0;
  for (const Msg* m : in.with_tag(tag)) {
    // Exactly one field element, validated before use; anything else is
    // malformed and drops the sender's point.
    const auto share = decode_elem_row<F>(m->body, 1);
    if (!share) {
      io.note_decode_failure(m->from);
      continue;
    }
    if (n_points >= points.size()) continue;
    points[n_points++] = {eval_point<F>(m->from), (*share)[0]};
  }
  if (n_points < coin.degree + 1) {
    trace_point("coin-expose", "decode-fail", io.id(), io.rounds(),
                "too few shares", io.stream(), io.committee());
    return std::nullopt;
  }
  // Tolerate up to t lies, but never more than the distance allows.
  const unsigned by_distance =
      static_cast<unsigned>((n_points - coin.degree - 1) / 2);
  const unsigned max_errors =
      std::min(static_cast<unsigned>(io.t()), by_distance);
  const auto value = rs_decode_at_zero<F>(
      std::span<const PointValue<F>>(points.data(), n_points), coin.degree,
      max_errors);
  if (!value) {
    trace_point("coin-expose", "decode-fail", io.id(), io.rounds(),
                "berlekamp-welch failed", io.stream(), io.committee());
  }
  return value;
}

}  // namespace dprbg
