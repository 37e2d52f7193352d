// Dense univariate polynomials over a FiniteField.
//
// Coefficients are stored low-degree-first with no trailing zeros, so the
// zero polynomial is the empty vector and degree() of a nonzero polynomial
// is coeffs().size() - 1. The protocols only ever need degree-t secret
// polynomials (t < n <= 64), so all operations are simple dense loops.

#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "common/check.h"
#include "gf/field_concept.h"
#include "gf/gf2.h"
#include "rng/chacha.h"

namespace dprbg {

template <FiniteField F>
class Polynomial {
 public:
  Polynomial() = default;
  explicit Polynomial(std::vector<F> coeffs) : coeffs_(std::move(coeffs)) {
    trim();
  }
  static Polynomial constant(F c) { return Polynomial{{c}}; }

  // Uniformly random polynomial of degree <= deg (exactly `deg + 1` random
  // coefficients). This is the dealer's sharing polynomial: the secret is
  // the constant term f(0).
  static Polynomial random(unsigned deg, Chacha& rng) {
    std::vector<F> c(deg + 1);
    for (auto& x : c) x = random_element<F>(rng);
    return Polynomial{std::move(c)};
  }
  // Random polynomial of degree <= deg with a prescribed secret f(0).
  static Polynomial random_with_secret(F secret, unsigned deg, Chacha& rng) {
    Polynomial p = random(deg, rng);
    if (p.coeffs_.empty()) p.coeffs_.resize(1);
    p.coeffs_[0] = secret;
    p.trim();
    return p;
  }

  [[nodiscard]] bool is_zero() const { return coeffs_.empty(); }
  // Degree of the zero polynomial is reported as -1.
  [[nodiscard]] int degree() const {
    return static_cast<int>(coeffs_.size()) - 1;
  }
  [[nodiscard]] const std::vector<F>& coeffs() const { return coeffs_; }
  [[nodiscard]] F coeff(std::size_t i) const {
    if (i >= coeffs_.size()) return F::zero();
    return coeffs_[i];
  }

  // Horner evaluation.
  [[nodiscard]] F operator()(F x) const {
    F acc = F::zero();
    for (std::size_t i = coeffs_.size(); i-- > 0;) {
      acc = acc * x + coeffs_[i];
    }
    return acc;
  }

  friend Polynomial operator+(const Polynomial& a, const Polynomial& b) {
    std::vector<F> c(std::max(a.coeffs_.size(), b.coeffs_.size()),
                     F::zero());
    for (std::size_t i = 0; i < c.size(); ++i) {
      c[i] = a.coeff(i) + b.coeff(i);
    }
    return Polynomial{std::move(c)};
  }
  friend Polynomial operator-(const Polynomial& a, const Polynomial& b) {
    std::vector<F> c(std::max(a.coeffs_.size(), b.coeffs_.size()),
                     F::zero());
    for (std::size_t i = 0; i < c.size(); ++i) {
      c[i] = a.coeff(i) - b.coeff(i);
    }
    return Polynomial{std::move(c)};
  }
  friend Polynomial operator*(const Polynomial& a, const Polynomial& b) {
    if (a.is_zero() || b.is_zero()) return {};
    std::vector<F> c(a.coeffs_.size() + b.coeffs_.size() - 1, F::zero());
    for (std::size_t i = 0; i < a.coeffs_.size(); ++i) {
      for (std::size_t j = 0; j < b.coeffs_.size(); ++j) {
        c[i + j] = c[i + j] + a.coeffs_[i] * b.coeffs_[j];
      }
    }
    return Polynomial{std::move(c)};
  }
  friend Polynomial operator*(F s, const Polynomial& p) {
    std::vector<F> c(p.coeffs_);
    for (auto& x : c) x = s * x;
    return Polynomial{std::move(c)};
  }

  // Quotient and remainder of *this by a nonzero divisor.
  struct DivMod {
    Polynomial quotient;
    Polynomial remainder;
  };
  [[nodiscard]] DivMod divmod(const Polynomial& d) const {
    DPRBG_CHECK(!d.is_zero());
    std::vector<F> rem = coeffs_;
    std::vector<F> quot(
        coeffs_.size() >= d.coeffs_.size()
            ? coeffs_.size() - d.coeffs_.size() + 1
            : 0,
        F::zero());
    const F lead_inv = d.coeffs_.back().inv();
    for (std::size_t i = rem.size(); i-- > 0;) {
      if (i + 1 < d.coeffs_.size()) break;
      const F factor = rem[i] * lead_inv;
      if (factor.is_zero()) continue;
      const std::size_t shift = i + 1 - d.coeffs_.size();
      quot[shift] = factor;
      for (std::size_t j = 0; j < d.coeffs_.size(); ++j) {
        rem[shift + j] = rem[shift + j] - factor * d.coeffs_[j];
      }
    }
    return {Polynomial{std::move(quot)}, Polynomial{std::move(rem)}};
  }

  friend bool operator==(const Polynomial& a, const Polynomial& b) {
    return a.coeffs_ == b.coeffs_;
  }

 private:
  void trim() {
    while (!coeffs_.empty() && coeffs_.back().is_zero()) coeffs_.pop_back();
  }

  std::vector<F> coeffs_;
};

// A dealer's whole batch of sharing polynomials in one contiguous block:
// size() polynomials of stride() = deg + 1 coefficients each, polynomial j
// low-degree-first at [j * stride, (j + 1) * stride). One allocation holds
// the (M+1)(t+1) coefficients a Coin-Gen dealer draws per batch, where a
// vector of Polynomial would hold M+1 separate ones.
//
// Coefficients are not trimmed: a zero top coefficient stays in place, and
// trimmed_len(j) is the length Polynomial would keep. eval_polys_block
// honours it, so evaluation costs exactly what the trimmed Polynomial's
// Horner loop costs.
template <FiniteField F>
class PolyBlock {
 public:
  PolyBlock() = default;
  // `count` zero polynomials of degree <= deg.
  PolyBlock(std::size_t count, unsigned deg)
      : count_(count), stride_(std::size_t{deg} + 1),
        coeffs_(count * stride_, F::zero()) {}

  // `count` uniformly random polynomials of degree <= deg. Coefficients
  // are drawn in exactly the order of `count` successive
  // Polynomial::random(deg, rng) calls, so the block equals those
  // polynomials and leaves `rng` in the same state.
  static PolyBlock random(std::size_t count, unsigned deg, Chacha& rng) {
    PolyBlock b(count, deg);
    for (F& c : b.coeffs_) c = random_element<F>(rng);
    return b;
  }

  // The block holding `polys`, with the stride of the longest one (at
  // least 1). Lets callers that build polynomials one by one — tests,
  // cheating dealers of degree > t — use the block kernels.
  static PolyBlock from_polys(std::span<const Polynomial<F>> polys) {
    std::size_t len = 1;
    for (const auto& p : polys) len = std::max(len, p.coeffs().size());
    PolyBlock b(polys.size(), static_cast<unsigned>(len - 1));
    for (std::size_t j = 0; j < polys.size(); ++j) {
      std::copy(polys[j].coeffs().begin(), polys[j].coeffs().end(),
                b.coeffs(j).begin());
    }
    return b;
  }

  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] std::size_t stride() const { return stride_; }
  // All size() * stride() coefficients, polynomial by polynomial.
  [[nodiscard]] const F* data() const { return coeffs_.data(); }

  [[nodiscard]] std::span<F> coeffs(std::size_t j) {
    return std::span<F>(coeffs_).subspan(j * stride_, stride_);
  }
  [[nodiscard]] std::span<const F> coeffs(std::size_t j) const {
    return std::span<const F>(coeffs_).subspan(j * stride_, stride_);
  }

  // Length of polynomial j without its zero top coefficients.
  [[nodiscard]] std::size_t trimmed_len(std::size_t j) const {
    const F* c = coeffs_.data() + j * stride_;
    std::size_t len = stride_;
    while (len > 0 && c[len - 1].is_zero()) --len;
    return len;
  }

  [[nodiscard]] Polynomial<F> poly(std::size_t j) const {
    const auto c = coeffs(j);
    return Polynomial<F>{std::vector<F>(c.begin(), c.end())};
  }

 private:
  std::size_t count_ = 0;
  std::size_t stride_ = 0;
  std::vector<F> coeffs_;
};

// Evaluate a whole batch of polynomials at one point in a blocked SoA
// pass: out[j] = polys.poly(j)(x). The dealer's distribution step
// evaluates all M+1 sharing polynomials per recipient; walking them in a
// register tile keeps the accumulators hot instead of re-running M
// independent Horner loops. Each polynomial's own Horner sequence
// (acc = acc*x + c_i from its top nonzero coefficient down) is replayed
// verbatim, so outputs and add/mul counts are identical to evaluating the
// trimmed polynomials in a loop — the trace budgets can't tell the
// difference (tests/block_kernels_test.cpp asserts both).
//
// GF2_64 blocks evaluated at a point below gf2_detail::kOneFoldBound
// (every Shamir point) run the inline one-fold PCLMUL kernel when
// clmul_hw is set: the same per-polynomial sequence, values and counts.
template <FiniteField F>
void eval_polys_block(const PolyBlock<F>& polys, F x, std::span<F> out) {
  DPRBG_CHECK(out.size() == polys.size());
  if constexpr (std::is_same_v<F, GF2_64>) {
    if (gf2_detail::clmul_hw && x.to_uint() < gf2_detail::kOneFoldBound) {
      gf2_detail::clmul_eval_block64(polys.data(), polys.stride(),
                                     polys.size(), x.to_uint(), out.data());
      return;
    }
  }
  constexpr std::size_t kTile = 32;
  F acc[kTile];
  const F* rows[kTile];
  std::size_t len[kTile];
  for (std::size_t p0 = 0; p0 < polys.size(); p0 += kTile) {
    const std::size_t tile = std::min(kTile, polys.size() - p0);
    std::size_t max_len = 0;
    for (std::size_t t = 0; t < tile; ++t) {
      acc[t] = F::zero();
      rows[t] = polys.coeffs(p0 + t).data();
      len[t] = polys.trimmed_len(p0 + t);
      max_len = std::max(max_len, len[t]);
    }
    // Trimmed lengths can be ragged within a tile; each polynomial
    // engages once the column index enters its trimmed range. The ops a
    // shorter one would do before that point (zero accumulator times x
    // plus a zero coefficient) must not run at all to keep counts
    // identical, hence the length guard.
    for (std::size_t j = max_len; j-- > 0;) {
      for (std::size_t t = 0; t < tile; ++t) {
        if (j < len[t]) acc[t] = acc[t] * x + rows[t][j];
      }
    }
    for (std::size_t t = 0; t < tile; ++t) out[p0 + t] = acc[t];
  }
}

}  // namespace dprbg
