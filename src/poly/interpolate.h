// Lagrange interpolation ("the basic solution ... compute the unique
// polynomial that they define (using, say, the Lagrange method)", §3.1).
//
// lagrange_interpolate returns the polynomial through a point set and
// bumps the `interpolations` metric once, matching the paper's habit of
// counting "polynomial interpolations" as a unit of work; is_degree_at_most
// is Problem 1's degree test on top of it. The protocols' threshold
// decodes do not call it directly: they go through poly/reed_solomon.h,
// which caches the barycentric data below per sender mask and falls back
// to berlekamp_welch (and so to this header) only past a nonzero syndrome
// or a full cache.
//
// Also here:
//  * The barycentric building blocks RsCheck shares: the master
//    polynomial N(x) = prod (x - x_j) and the inverted weights
//    w_i = prod_{j != i} (x_i - x_j)^{-1}, whose n inversions
//    Montgomery's trick turns into one inv() plus ~3(n-1) multiplications.
//  * Blocked SoA kernels at the bottom of this header that process all M
//    columns of a round's share matrix in one pass (batch_combine_block,
//    accumulate_rows_block). Both replay the scalar per-row operation
//    sequence exactly — bit-for-bit outputs AND identical add/mul counts,
//    so the Lemma 2/4/6/8 trace budgets are untouched (asserted in
//    tests/block_kernels_test.cpp).

#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/check.h"
#include "common/metrics.h"
#include "common/telemetry.h"
#include "gf/field_concept.h"
#include "gf/gf2.h"
#include "poly/polynomial.h"

namespace dprbg {

template <FiniteField F>
struct PointValue {
  F x;
  F y;
};

namespace interp_detail {

// Montgomery's trick: replaces vals[i] with vals[i]^{-1} for all i using
// one inv() and 3(n-1) multiplications (prefix products, one inversion
// of the total, then a backward sweep). All entries must be nonzero.
template <FiniteField F>
void batch_invert(std::span<F> vals) {
  const std::size_t n = vals.size();
  if (n == 0) return;
  std::vector<F> prefix(n);
  F acc = F::one();
  for (std::size_t i = 0; i < n; ++i) {
    prefix[i] = acc;
    acc = acc * vals[i];
  }
  F inv_acc = acc.inv();
  for (std::size_t i = n; i-- > 0;) {
    const F v = vals[i];
    vals[i] = inv_acc * prefix[i];
    inv_acc = inv_acc * v;
  }
}

// The n+1 coefficients of N(x) = prod_j (x - x_j); master[k] is the
// coefficient of x^k.
template <FiniteField F>
std::vector<F> build_master(std::span<const PointValue<F>> points) {
  const std::size_t n = points.size();
  std::vector<F> master(n + 1, F::zero());
  master[0] = F::one();
  std::size_t deg = 0;
  for (std::size_t j = 0; j < n; ++j) {
    // master *= (x - x_j)
    for (std::size_t i = deg + 1; i-- > 0;) {
      F carry = master[i];
      master[i] = (i > 0 ? master[i - 1] : F::zero()) - carry * points[j].x;
    }
    master[deg + 1] = F::one();
    ++deg;
  }
  return master;
}

// Denominators d_i = prod_{j != i} (x_i - x_j), inverted in one batch.
template <FiniteField F>
std::vector<F> inverted_weights(std::span<const PointValue<F>> points) {
  const std::size_t n = points.size();
  std::vector<F> w(n, F::one());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (j != i) w[i] = w[i] * (points[i].x - points[j].x);
    }
  }
  batch_invert(std::span<F>(w));
  return w;
}

}  // namespace interp_detail

// The unique polynomial of degree < points.size() through the given points
// (x-coordinates must be distinct).
template <FiniteField F>
Polynomial<F> lagrange_interpolate(std::span<const PointValue<F>> points) {
  count_interpolation();
  const std::size_t n = points.size();
  DPRBG_CHECK(n > 0);
  // Sum of y_i * prod_{j != i} (x - x_j) / (x_i - x_j), built with O(n^2)
  // coefficient arithmetic via the "master" product trick:
  //   N(x) = prod_j (x - x_j);  L_i(x) = N(x) / (x - x_i) * w_i,
  // where w_i = prod_{j != i} (x_i - x_j)^{-1} (barycentric weights).
  const std::vector<F> master = interp_detail::build_master(points);
  const std::vector<F> weights = interp_detail::inverted_weights(points);
  std::vector<F> result(n, F::zero());
  std::vector<F> quotient(n);
  for (std::size_t i = 0; i < n; ++i) {
    const F scale = points[i].y * weights[i];
    // Synthetic division: quotient = master / (x - x_i).
    F carry = master[n];
    for (std::size_t k = n; k-- > 0;) {
      quotient[k] = carry;
      carry = master[k] + carry * points[i].x;
    }
    // carry is now the remainder master(x_i) = 0 (distinct x's).
    for (std::size_t k = 0; k < n; ++k) {
      result[k] = result[k] + scale * quotient[k];
    }
  }
  return Polynomial<F>{std::move(result)};
}

// ---------------------------------------------------------------------
// Blocked SoA kernels: evaluate all M columns of a round's share matrix
// in one pass. See the header comment for the equivalence contract.

namespace interp_detail {

// field_kernel_* telemetry for the blocked share-row kernels: elements
// per op and a block-length histogram, published only when telemetry is on.
inline void tel_block(const char* op, std::size_t elems) {
  if (!telemetry_enabled()) return;
  MetricsRegistry& reg = metrics();
  const std::string labels = std::string("op=") + op;
  reg.counter("field_kernel_elems_total", labels).add(elems);
  reg.histogram("field_kernel_block_len", labels).observe(elems);
}

}  // namespace interp_detail

// Horner combinations of many rows under one challenge r, all in one
// blocked pass: out[i] = sum_{j=1..m} rows[i][j-1] * r^j, i.e. exactly
// batch_combine(rows[i], r) for every row. Rows are register-tiled so a
// tile's accumulators stay hot while the shared power-of-r walk streams
// each column once; the per-row operation sequence — (acc + x) * r from
// j = m-1 down to 0 — is replayed verbatim, so outputs AND add/mul
// counts are identical to the scalar loop (trace budgets unaffected).
// GF2_64 rows run the inline-PCLMUL kernel when clmul_hw is set, with the
// same values and counts. Every row must have m elements.
template <FiniteField F>
void batch_combine_block(std::span<const F* const> rows, std::size_t m, F r,
                         std::span<F> out) {
  DPRBG_CHECK(out.size() == rows.size());
  interp_detail::tel_block("combine_block", rows.size() * m);
  if constexpr (std::is_same_v<F, GF2_64>) {
    if (gf2_detail::clmul_hw) {
      gf2_detail::clmul_combine_block64(rows, m, r, out);
      return;
    }
  }
  constexpr std::size_t kTile = 32;
  F acc[kTile];
  for (std::size_t r0 = 0; r0 < rows.size(); r0 += kTile) {
    const std::size_t tile = std::min(kTile, rows.size() - r0);
    for (std::size_t t = 0; t < tile; ++t) acc[t] = F::zero();
    for (std::size_t j = m; j-- > 0;) {
      for (std::size_t t = 0; t < tile; ++t) {
        acc[t] = (acc[t] + rows[r0 + t][j]) * r;
      }
    }
    for (std::size_t t = 0; t < tile; ++t) out[r0 + t] = acc[t];
  }
}

// Column sums of a set of rows: out[h] += rows[0][h] + rows[1][h] + ...
// (the Coin-Gen output step's sigma accumulation, Fig. 6's sum over the
// dealers of S). Per output element the adds happen in row order — the
// same sequence as the scalar h-outer/j-inner loop — so outputs and add
// counts match exactly. Every row must have out.size() elements.
template <FiniteField F>
void accumulate_rows_block(std::span<const F* const> rows,
                           std::span<F> out) {
  interp_detail::tel_block("row_sum", rows.size() * out.size());
  constexpr std::size_t kTile = 64;
  const std::size_t m = out.size();
  for (std::size_t h0 = 0; h0 < m; h0 += kTile) {
    const std::size_t tile = std::min(kTile, m - h0);
    for (const F* row : rows) {
      for (std::size_t t = 0; t < tile; ++t) {
        out[h0 + t] = out[h0 + t] + row[h0 + t];
      }
    }
  }
}

// Checks whether the given points lie on a single polynomial of degree at
// most `max_degree` (the degree test of Problem 1): interpolate through
// the first max_degree+1 points and verify the rest.
template <FiniteField F>
bool is_degree_at_most(std::span<const PointValue<F>> points,
                       unsigned max_degree) {
  if (points.size() <= max_degree + 1) return true;
  const auto head = points.first(max_degree + 1);
  const Polynomial<F> f = lagrange_interpolate<F>(head);
  for (std::size_t i = max_degree + 1; i < points.size(); ++i) {
    if (f(points[i].x) != points[i].y) return false;
  }
  return true;
}

}  // namespace dprbg
