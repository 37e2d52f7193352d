// Berlekamp-Welch decoding [5] (US Patent 4,633,470), the error-correcting
// interpolation used by Bit-Gen (Fig. 4, step 5) and Coin-Expose (Fig. 6,
// step 2): given points of which at most `max_errors` are corrupted,
// recover the unique polynomial of degree <= max_degree through the rest.
//
// Method: find a nonzero "error locator" E(x) of degree <= e and a
// polynomial Q(x) of degree <= e + d such that for every received point
// (x_i, y_i):  y_i * E(x_i) = Q(x_i). Any solution of this linear system
// satisfies Q = f * E for the true codeword polynomial f, so f = Q / E.
// Decoding succeeds whenever points.size() >= d + 2e + 1. Every protocol
// decode reaches it through poly/reed_solomon.h, which answers a zero
// syndrome without solving the system.

#pragma once

#include <optional>
#include <span>
#include <vector>

#include "common/metrics.h"
#include "gf/field_concept.h"
#include "poly/interpolate.h"
#include "poly/linalg.h"
#include "poly/polynomial.h"

namespace dprbg {

// Decodes a polynomial of degree <= max_degree from points with at most
// max_errors corruptions. Returns nullopt when no such polynomial exists
// (e.g. more corruption than the distance allows, or a cheating dealer's
// over-degree sharing). Counted as one interpolation in the metrics,
// matching the paper's treatment of Berlekamp-Welch decoding as "a single
// polynomial interpolation".
template <FiniteField F>
std::optional<Polynomial<F>> berlekamp_welch(
    std::span<const PointValue<F>> points, unsigned max_degree,
    unsigned max_errors) {
  const std::size_t n = points.size();
  if (n < static_cast<std::size_t>(max_degree) + 1) return std::nullopt;

  // Fast path: no errors permitted, plain interpolation + degree check.
  if (max_errors == 0) {
    if (!is_degree_at_most<F>(points, max_degree)) return std::nullopt;
    const auto head = points.first(
        std::min<std::size_t>(n, static_cast<std::size_t>(max_degree) + 1));
    return lagrange_interpolate<F>(head);
  }

  count_interpolation();
  // Try decreasing error counts: the key equation with e' < actual number
  // of errors is unsolvable, while e' > actual may produce spurious
  // solutions with E not dividing Q; scanning e from max down and
  // verifying the division handles both.
  for (unsigned e = max_errors;; --e) {
    // Unknowns: E_0..E_{e-1} (E is monic of degree e) and Q_0..Q_{e+d}.
    const std::size_t num_e = e;
    const std::size_t num_q = e + max_degree + 1;
    Matrix<F> a(n, num_e + num_q);
    std::vector<F> b(n, F::zero());
    for (std::size_t i = 0; i < n; ++i) {
      const F x = points[i].x;
      const F y = points[i].y;
      // y * (x^e + sum_j E_j x^j) - sum_j Q_j x^j = 0
      F xp = F::one();
      for (std::size_t j = 0; j < num_e; ++j) {
        a.at(i, j) = y * xp;
        xp = xp * x;
      }
      b[i] = F::zero() - y * xp;  // -(y * x^e)
      xp = F::one();
      for (std::size_t j = 0; j < num_q; ++j) {
        a.at(i, num_e + j) = F::zero() - xp;
        xp = xp * x;
      }
    }
    if (auto sol = solve_linear<F>(std::move(a), std::move(b))) {
      std::vector<F> e_coeffs(sol->begin(), sol->begin() + num_e);
      e_coeffs.push_back(F::one());  // monic
      std::vector<F> q_coeffs(sol->begin() + num_e, sol->end());
      const Polynomial<F> ep{std::move(e_coeffs)};
      const Polynomial<F> qp{std::move(q_coeffs)};
      auto [quot, rem] = qp.divmod(ep);
      if (rem.is_zero() && quot.degree() <= static_cast<int>(max_degree)) {
        // Confirm the decoded polynomial disagrees with at most
        // max_errors points (guards against spurious solutions).
        unsigned disagreements = 0;
        for (const auto& pv : points) {
          if (quot(pv.x) != pv.y) ++disagreements;
        }
        if (disagreements <= max_errors) return quot;
      }
    }
    if (e == 0) break;
  }
  return std::nullopt;
}

}  // namespace dprbg
