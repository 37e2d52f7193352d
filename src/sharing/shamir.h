// Shamir secret sharing [18], the paper's substrate for every sharing:
// "the secret is the value of a polynomial at the origin, while the
// players' shares are the values of the polynomial evaluated at the
// players' id's" (Section 1.3).

#pragma once

#include <vector>

#include "gf/field_concept.h"
#include "poly/polynomial.h"
#include "rng/chacha.h"

namespace dprbg {

// The field point at which player `player` (0-based) evaluates sharings.
// Points are 1..n: nonzero (so shares never reveal f(0)) and distinct for
// any n < 2^k.
template <FiniteField F>
F eval_point(int player) {
  return F::from_uint(static_cast<std::uint64_t>(player) + 1);
}

// Shares f(1), ..., f(n); index i belongs to player i (0-based).
template <FiniteField F>
std::vector<F> deal_shares(const Polynomial<F>& f, int n) {
  std::vector<F> shares(n);
  for (int i = 0; i < n; ++i) shares[i] = f(eval_point<F>(i));
  return shares;
}

// Fresh random degree-t sharing of `secret`.
template <FiniteField F>
std::vector<F> share_secret(F secret, unsigned t, int n, Chacha& rng) {
  return deal_shares(Polynomial<F>::random_with_secret(secret, t, rng), n);
}

}  // namespace dprbg
