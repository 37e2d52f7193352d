// Reed–Solomon codes at the Shamir evaluation points, decoded
// syndrome-first.
//
// Points at fixed evaluation positions x_i form a Reed–Solomon codeword
// of dimension c exactly when they lie on one polynomial of degree < c.
// That is what every error-correcting decode in the protocols checks
// first: Coin-Expose's shares (Fig. 6), Bit-Gen's combination shares
// (Fig. 4 step 5), and Grade-Cast's dispersed echo symbols
// (gradecast/gradecast.h). Honest runs never carry an error, so the
// common case is a zero syndrome, and Berlekamp–Welch's Gaussian
// elimination is only worth paying for when someone lied.
//
// Two layers:
//
//  * RsCheck — for one point set xs (the x-coordinates of the senders
//    present) and one dimension c: the p − c parity-check rows
//    H[r][i] = w_i x_i^r, where w_i = prod_{j != i} (x_i − x_j)^{-1}
//    (sum_i w_i g(x_i) is g's interpolant's x^{p−1} coefficient, which
//    vanishes for deg g <= p − 2), and the Lagrange basis of the first c
//    points, from which F(0) and the polynomial itself are read off.
//    Entries are cached thread-locally per (c, xs) — the present-sender
//    mask — like interpolate.h's grid weights, so a run's op counts stay
//    deterministic; a full cache leaves new masks to Berlekamp–Welch.
//    rs_decode / rs_decode_at_zero keep berlekamp_welch's contract: a
//    zero syndrome answers directly (counted as the one interpolation the
//    paper charges for a decode), anything else runs berlekamp_welch
//    unchanged. Both agree with berlekamp_welch on every input: when
//    points >= degree + 2e + 1 the polynomial within distance e is
//    unique, and outside that regime the fast path is not taken.
//
//  * ReedSolomon — the byte-string dispersal codec over GF(2^64): a value
//    of L bytes packs into ceil(L/8) little-endian elements, grouped in
//    stripes of c; stripe s is the polynomial of degree < c whose values
//    at x_1..x_c are the stripe's elements (a systematic code), and
//    player i's symbol is that polynomial at x_i, one element per stripe.

#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/metrics.h"
#include "gf/field_concept.h"
#include "gf/gf2.h"
#include "poly/berlekamp_welch.h"
#include "poly/interpolate.h"
#include "poly/polynomial.h"

namespace dprbg {

// Parity-check rows and Lagrange data for one point set and dimension.
template <FiniteField F>
class RsCheck {
 public:
  RsCheck(std::vector<F> xs, unsigned dim) : xs_(std::move(xs)), dim_(dim) {
    const std::size_t p = xs_.size();
    DPRBG_CHECK(dim_ >= 1 && p >= dim_);
    std::vector<PointValue<F>> pts(p);
    for (std::size_t i = 0; i < p; ++i) pts[i] = {xs_[i], F::zero()};
    const std::span<const PointValue<F>> all(pts);

    // Parity rows r = 0 .. p - dim - 1: w_i x_i^r.
    std::vector<F> pw = interp_detail::inverted_weights(all);
    parity_.resize((p - dim_) * p);
    for (std::size_t r = 0; r + dim_ < p; ++r) {
      for (std::size_t i = 0; i < p; ++i) {
        parity_[r * p + i] = pw[i];
        pw[i] = pw[i] * xs_[i];
      }
    }

    // Lagrange basis over the first dim points: L_i = w_i N(x)/(x - x_i).
    const auto head = all.first(dim_);
    const std::vector<F> master = interp_detail::build_master(head);
    const std::vector<F> w = interp_detail::inverted_weights(head);
    basis_.resize(static_cast<std::size_t>(dim_) * dim_);
    for (std::size_t i = 0; i < dim_; ++i) {
      F carry = master[dim_];
      for (std::size_t k = dim_; k-- > 0;) {
        basis_[i * dim_ + k] = w[i] * carry;
        carry = master[k] + carry * xs_[i];
      }
    }
  }

  // True iff ys[i] (the value at xs[i]) all lie on one polynomial of
  // degree < dim. Stops at the first nonzero syndrome.
  [[nodiscard]] bool zero_syndrome(std::span<const F> ys) const {
    const std::size_t p = xs_.size();
    DPRBG_CHECK(ys.size() == p);
    for (std::size_t r = 0; r + dim_ < p; ++r) {
      const F* row = &parity_[r * p];
      F s = F::zero();
      for (std::size_t i = 0; i < p; ++i) s = s + row[i] * ys[i];
      if (!s.is_zero()) return false;
    }
    return true;
  }

  // F(0) of the polynomial through the first dim points.
  [[nodiscard]] F at_zero(std::span<const F> ys) const {
    F sum = F::zero();
    for (std::size_t i = 0; i < dim_; ++i) sum = sum + ys[i] * basis_[i * dim_];
    return sum;
  }

  // L_i, the Lagrange basis polynomial of the first dim points.
  [[nodiscard]] Polynomial<F> lagrange(std::size_t i) const {
    return Polynomial<F>{std::vector<F>(basis_.begin() + i * dim_,
                                        basis_.begin() + (i + 1) * dim_)};
  }

  // The polynomial through the first dim points.
  [[nodiscard]] Polynomial<F> interpolate(std::span<const F> ys) const {
    std::vector<F> coeffs(dim_, F::zero());
    for (std::size_t i = 0; i < dim_; ++i) {
      const F* row = &basis_[i * dim_];
      for (std::size_t k = 0; k < dim_; ++k) {
        coeffs[k] = coeffs[k] + ys[i] * row[k];
      }
    }
    return Polynomial<F>{std::move(coeffs)};
  }

 private:
  std::vector<F> xs_;
  unsigned dim_;
  std::vector<F> parity_;  // (p - dim) x p, row-major
  std::vector<F> basis_;   // dim x dim: basis_[i * dim + k] = [x^k] L_i
};

// Upper bound on cached (dim, mask) entries per thread. Masks come from
// which peers sent well-formed messages, so a hostile peer can vary them;
// past the cap, unfamiliar masks decode with berlekamp_welch.
inline constexpr std::size_t kRsCheckCacheCap = 64;

// The cached check for point set `xs` and dimension `dim`, built on first
// use (its cost is charged to that decode); nullptr when xs has fewer
// than dim points or the cache is full.
template <FiniteField F>
const RsCheck<F>* rs_check(std::span<const F> xs, unsigned dim) {
  if (dim == 0 || xs.size() < dim) return nullptr;
  std::vector<std::uint64_t> key;
  key.reserve(xs.size() + 1);
  key.push_back(dim);
  for (const F& x : xs) key.push_back(x.to_uint());
  thread_local std::map<std::vector<std::uint64_t>, RsCheck<F>> cache;
  auto it = cache.find(key);
  if (it != cache.end()) return &it->second;
  if (cache.size() >= kRsCheckCacheCap) return nullptr;
  return &cache
              .emplace(std::move(key),
                       RsCheck<F>(std::vector<F>(xs.begin(), xs.end()), dim))
              .first->second;
}

namespace rs_detail {

// The cached check when `points` have a zero syndrome and lie where the
// decode is unique (points >= degree + 2 * max_errors + 1); nullptr
// otherwise. Fills ys with the points' values.
template <FiniteField F>
const RsCheck<F>* clean_check(std::span<const PointValue<F>> points,
                              unsigned max_degree, unsigned max_errors,
                              std::vector<F>& ys) {
  const std::size_t p = points.size();
  const std::size_t dim = static_cast<std::size_t>(max_degree) + 1;
  if (p < dim + 2 * static_cast<std::size_t>(max_errors)) return nullptr;
  std::vector<F> xs(p);
  ys.resize(p);
  for (std::size_t i = 0; i < p; ++i) {
    xs[i] = points[i].x;
    ys[i] = points[i].y;
  }
  const RsCheck<F>* chk = rs_check<F>(xs, static_cast<unsigned>(dim));
  if (chk == nullptr || !chk->zero_syndrome(ys)) return nullptr;
  return chk;
}

}  // namespace rs_detail

// berlekamp_welch, syndrome first: the same result on every input.
template <FiniteField F>
std::optional<Polynomial<F>> rs_decode(std::span<const PointValue<F>> points,
                                       unsigned max_degree,
                                       unsigned max_errors) {
  std::vector<F> ys;
  if (const RsCheck<F>* chk =
          rs_detail::clean_check(points, max_degree, max_errors, ys)) {
    count_interpolation();
    return chk->interpolate(ys);
  }
  return berlekamp_welch<F>(points, max_degree, max_errors);
}

// F(0) of rs_decode's polynomial, read off the cached weights when the
// syndrome is zero.
template <FiniteField F>
std::optional<F> rs_decode_at_zero(std::span<const PointValue<F>> points,
                                   unsigned max_degree, unsigned max_errors) {
  std::vector<F> ys;
  if (const RsCheck<F>* chk =
          rs_detail::clean_check(points, max_degree, max_errors, ys)) {
    count_interpolation();
    return chk->at_zero(ys);
  }
  const auto poly = berlekamp_welch<F>(points, max_degree, max_errors);
  if (!poly) return std::nullopt;
  return (*poly)(F::zero());
}

// ---------------------------------------------------------------------
// The dispersal codec over GF(2^64).

// Stripes of `dim` elements needed for a value of `len` bytes.
inline std::size_t rs_stripes(std::uint64_t len, unsigned dim) {
  const std::uint64_t elems = len / 8 + (len % 8 != 0 ? 1 : 0);
  return static_cast<std::size_t>(elems / dim + (elems % dim != 0 ? 1 : 0));
}

class ReedSolomon {
 public:
  using F = GF2_64;

  // Player i's evaluation point, the Shamir point (sharing/shamir.h).
  static F point(int i) {
    return F::from_uint(static_cast<std::uint64_t>(i) + 1);
  }

  // A dimension-`dim` code over the n points x_i = eval_point(i).
  ReedSolomon(int n, unsigned dim) : n_(n), dim_(dim) {
    DPRBG_CHECK(dim_ >= 1 && n_ >= static_cast<int>(dim_));
    // gen_[(i - dim) * dim + j] = L_j(x_i), L_j the Lagrange basis of
    // x_1..x_dim: the weights that extend a stripe to position i.
    std::vector<F> head(dim_);
    for (unsigned j = 0; j < dim_; ++j) head[j] = point(static_cast<int>(j));
    const RsCheck<F> sys(std::move(head), dim_);
    const std::size_t extra = static_cast<std::size_t>(n_) - dim_;
    gen_.resize(extra * dim_);
    for (unsigned j = 0; j < dim_; ++j) {
      const Polynomial<F> basis = sys.lagrange(j);
      for (std::size_t e = 0; e < extra; ++e) {
        gen_[e * dim_ + j] = basis(point(static_cast<int>(dim_ + e)));
      }
    }
  }

  // The value's elements, stripe-major and zero-padded to whole stripes.
  [[nodiscard]] std::vector<F> pack(std::span<const std::uint8_t> value) const {
    std::vector<F> data(rs_stripes(value.size(), dim_) * dim_, F::zero());
    for (std::size_t b = 0; b < value.size(); ++b) {
      data[b / 8] = F::from_uint(data[b / 8].to_uint() |
                                 (std::uint64_t{value[b]} << (8 * (b % 8))));
    }
    return data;
  }

  // Inverse of pack for a `len`-byte value; nullopt unless `data` has
  // exactly the stripes pack would make and its padding is zero.
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> unpack(
      std::span<const F> data, std::uint64_t len) const {
    if (data.size() != rs_stripes(len, dim_) * dim_) return std::nullopt;
    std::vector<std::uint8_t> value(static_cast<std::size_t>(len));
    for (std::size_t e = 0; e < data.size(); ++e) {
      std::uint64_t v = data[e].to_uint();
      for (unsigned k = 0; k < 8; ++k, v >>= 8) {
        const std::size_t b = e * 8 + k;
        if (b < value.size()) {
          value[b] = static_cast<std::uint8_t>(v);
        } else if ((v & 0xFF) != 0) {
          return std::nullopt;
        }
      }
    }
    return value;
  }

  // Player i's symbol: every stripe's polynomial at x_i.
  [[nodiscard]] std::vector<F> symbol(std::span<const F> data, int i) const {
    DPRBG_CHECK(i >= 0 && i < n_ && data.size() % dim_ == 0);
    const std::size_t stripes = data.size() / dim_;
    std::vector<F> out(stripes);
    if (i < static_cast<int>(dim_)) {
      for (std::size_t s = 0; s < stripes; ++s) out[s] = data[s * dim_ + i];
      return out;
    }
    const F* w = &gen_[(static_cast<std::size_t>(i) - dim_) * dim_];
    for (std::size_t s = 0; s < stripes; ++s) {
      F acc = F::zero();
      for (unsigned j = 0; j < dim_; ++j) {
        acc = acc + data[s * dim_ + j] * w[j];
      }
      out[s] = acc;
    }
    return out;
  }

  struct Decoded {
    std::vector<F> data;    // the codeword's stripes, as pack lays them out
    std::size_t agree = 0;  // symbols (all stripes) on the codeword
  };

  // Decodes the codeword nearest to the symbols of players ids[k] (rows[k],
  // one element per stripe; ids ascending and distinct). A stripe with a
  // zero syndrome is read directly; any other runs berlekamp_welch with
  // `max_errors`. Returns nullopt when some stripe does not decode or
  // fewer than dim + 2 * max_errors symbols are given.
  [[nodiscard]] std::optional<Decoded> decode(
      std::span<const int> ids, std::span<const std::span<const F>> rows,
      unsigned max_errors) const {
    const std::size_t p = ids.size();
    DPRBG_CHECK(rows.size() == p);
    if (p < dim_ + 2 * static_cast<std::size_t>(max_errors)) {
      return std::nullopt;
    }
    const std::size_t stripes = rows[0].size();
    std::vector<F> xs(p);
    for (std::size_t k = 0; k < p; ++k) {
      DPRBG_CHECK(rows[k].size() == stripes);
      xs[k] = point(ids[k]);
    }
    const RsCheck<F>* chk = rs_check<F>(xs, dim_);
    // ids ascending and distinct: the first dim are the systematic points.
    const bool systematic = ids[dim_ - 1] == static_cast<int>(dim_) - 1;

    Decoded out;
    out.data.resize(stripes * dim_);
    std::vector<std::pair<std::size_t, Polynomial<F>>> corrected;
    std::vector<F> ys(p);
    std::vector<PointValue<F>> pts(p);
    for (std::size_t s = 0; s < stripes; ++s) {
      for (std::size_t k = 0; k < p; ++k) ys[k] = rows[k][s];
      F* stripe = &out.data[s * dim_];
      if (chk != nullptr && chk->zero_syndrome(ys)) {
        if (systematic) {
          std::copy(ys.begin(), ys.begin() + dim_, stripe);
        } else {
          const Polynomial<F> f = chk->interpolate(ys);
          for (unsigned j = 0; j < dim_; ++j) {
            stripe[j] = f(point(static_cast<int>(j)));
          }
        }
        continue;
      }
      for (std::size_t k = 0; k < p; ++k) pts[k] = {xs[k], ys[k]};
      auto f = berlekamp_welch<F>(std::span<const PointValue<F>>(pts),
                                  dim_ - 1, max_errors);
      if (!f) return std::nullopt;
      for (unsigned j = 0; j < dim_; ++j) {
        stripe[j] = (*f)(point(static_cast<int>(j)));
      }
      corrected.emplace_back(s, std::move(*f));
    }
    for (std::size_t k = 0; k < p; ++k) {
      bool on = true;
      for (const auto& [s, f] : corrected) {
        if (f(xs[k]) != rows[k][s]) {
          on = false;
          break;
        }
      }
      if (on) ++out.agree;
    }
    return out;
  }

 private:
  int n_;
  unsigned dim_;
  std::vector<F> gen_;  // (n - dim) x dim extension weights
};

}  // namespace dprbg
