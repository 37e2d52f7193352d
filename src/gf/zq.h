// Z_q arithmetic for a small runtime prime q, the base field of the
// paper's special construction GF(q^l) (Section 2).
//
// The paper: "We can implement operations over Z_q via a table". When q is
// small enough we precompute a q*q multiplication table and a q-entry
// inverse table; otherwise we fall back to direct modular arithmetic.

#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.h"

namespace dprbg {

class Zq {
 public:
  // q must be prime (checked).
  explicit Zq(std::uint32_t q);

  [[nodiscard]] std::uint32_t q() const { return q_; }
  [[nodiscard]] bool tabulated() const { return !mul_table_.empty(); }

  // add and sub are branch-free: for q < 2^31 the wrapped candidate is
  // the larger one (as unsigned), so min picks the canonical residue. On
  // random residues a compare-and-branch mispredicts about half the time,
  // which doubled the cost of the NTT butterflies that call these.
  [[nodiscard]] std::uint32_t add(std::uint32_t a, std::uint32_t b) const {
    return std::min(a + b, a + b - q_);
  }
  [[nodiscard]] std::uint32_t sub(std::uint32_t a, std::uint32_t b) const {
    return std::min(a - b, a - b + q_);
  }
  [[nodiscard]] std::uint32_t neg(std::uint32_t a) const {
    return a == 0 ? 0 : q_ - a;
  }
  [[nodiscard]] std::uint32_t mul(std::uint32_t a, std::uint32_t b) const {
    if (!mul_table_.empty()) return mul_table_[std::size_t{a} * q_ + b];
    return reduce(std::uint64_t{a} * b);
  }
  [[nodiscard]] std::uint32_t inv(std::uint32_t a) const {
    DPRBG_CHECK(a != 0);
    if (!inv_table_.empty()) return inv_table_[a];
    return pow(a, q_ - 2);
  }
  [[nodiscard]] std::uint32_t pow(std::uint32_t a, std::uint64_t e) const;

  // True iff g generates the full multiplicative group Z_q^*.
  [[nodiscard]] bool is_generator(std::uint32_t g) const;
  // Some generator of Z_q^*.
  [[nodiscard]] std::uint32_t find_generator() const;
  // An element of exact multiplicative order `order` (must divide q-1).
  [[nodiscard]] std::uint32_t root_of_unity(std::uint32_t order) const;

  static bool is_prime(std::uint32_t n);

  // p mod q by Barrett reduction, for any p < 2^64. The NTT loops call it
  // directly (mul() would add a table branch per element). With the
  // precomputed reciprocal m = floor((2^64-1) / q), q_hat = mulhi64(p, m)
  // satisfies floor(p/q) - 1 <= q_hat <= floor(p/q), so r = p - q_hat*q
  // < 2q and one conditional subtract finishes — no hardware divide, for
  // every q >= 1.
  [[nodiscard]] std::uint32_t reduce(std::uint64_t p) const {
#ifdef __SIZEOF_INT128__
    const std::uint64_t q_hat = static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(p) * barrett_) >> 64);
    std::uint64_t r = p - q_hat * q_;
    if (r >= q_) r -= q_;
    return static_cast<std::uint32_t>(r);
#else
    return static_cast<std::uint32_t>(p % q_);
#endif
  }

 private:
  std::uint32_t q_;
  std::uint64_t barrett_ = 0;             // floor((2^64 - 1) / q)
  std::vector<std::uint32_t> mul_table_;  // q*q entries when q <= kTableLimit
  std::vector<std::uint32_t> inv_table_;  // q entries when tabulated

  static constexpr std::uint32_t kTableLimit = 1024;
};

}  // namespace dprbg
