// GF(2^m) for m <= 64, with the two multiplication strategies the paper
// discusses in Section 2:
//
//  * carry-less multiply plus reduction ("naive multiplication in a field
//    of size 2^k takes O(k^2) steps"), used for m > 16: hardware PCLMUL
//    when the CPU has it (gf2_clmul.h; a fixed two-fold reduction for the
//    protocol field GF(2^64), a fold loop for 16 < m < 64), else the
//    shift-and-XOR loop `clmul_reduce`, and
//  * log/antilog tables for m <= 16, which is the regime where the paper
//    notes that "when k is small, working over GF(2^k) with the naive
//    O(k^2) multiplication is faster than working over our special field".
//
// Elements are value types holding the polynomial's bit pattern in a
// uint64_t; every value in [0, 2^m) is a valid element, so uniform
// sampling is just masking random bits.

#pragma once

#include <array>
#include <cstdint>

#include "common/check.h"
#include "common/metrics.h"
#include "gf/gf2_clmul.h"

namespace dprbg {

namespace gf2_detail {

// Low-weight irreducible polynomials over GF(2), from the standard
// tables (Seroussi, "Table of low-weight binary irreducible polynomials",
// HP Labs HPL-98-135). The value encodes the polynomial minus the leading
// x^m term; e.g. for m=8, 0x1B = x^4+x^3+x+1 means x^8+x^4+x^3+x+1.
template <unsigned M>
constexpr std::uint64_t modulus();

template <> constexpr std::uint64_t modulus<4>() { return 0x3; }    // x^4+x+1
template <> constexpr std::uint64_t modulus<8>() { return 0x1B; }   // x^8+x^4+x^3+x+1
template <> constexpr std::uint64_t modulus<16>() { return 0x2B; }  // x^16+x^5+x^3+x+1
template <> constexpr std::uint64_t modulus<24>() { return 0x1B; }  // x^24+x^4+x^3+x+1
template <> constexpr std::uint64_t modulus<32>() { return 0x8D; }  // x^32+x^7+x^3+x^2+1
template <> constexpr std::uint64_t modulus<40>() { return 0x39; }  // x^40+x^5+x^4+x^3+1
template <> constexpr std::uint64_t modulus<48>() { return 0x2D; }  // x^48+x^5+x^3+x^2+1
template <> constexpr std::uint64_t modulus<56>() { return 0x95; }  // x^56+x^7+x^4+x^2+1
template <> constexpr std::uint64_t modulus<64>() { return 0x1B; }  // x^64+x^4+x^3+x+1

// Carry-less multiply of two m-bit operands followed by reduction modulo
// the field polynomial. constexpr so tables below can be built at startup
// from the same primitive.
template <unsigned M>
constexpr std::uint64_t clmul_reduce(std::uint64_t a, std::uint64_t b) {
  // Product has up to 2M-1 bits; keep it in (hi, lo) 64-bit halves.
  std::uint64_t lo = 0, hi = 0;
  for (unsigned i = 0; i < M; ++i) {
    if ((b >> i) & 1u) {
      lo ^= a << i;
      if (i != 0) hi ^= a >> (64 - i);
    }
  }
  // Reduce bits [M, 2M-1] down using x^M = modulus (mod f).
  constexpr std::uint64_t kMod = modulus<M>();
  for (int bit = static_cast<int>(2 * M - 2); bit >= static_cast<int>(M);
       --bit) {
    const bool set = bit >= 64 ? ((hi >> (bit - 64)) & 1u) != 0
                               : ((lo >> bit) & 1u) != 0;
    if (!set) continue;
    if (bit >= 64) {
      hi ^= std::uint64_t{1} << (bit - 64);
    } else {
      lo ^= std::uint64_t{1} << bit;
    }
    // XOR in (x^M + kMod) shifted by (bit - M): clears the bit via the
    // x^M term and adds the low-order tail.
    const unsigned sh = static_cast<unsigned>(bit) - M;
    lo ^= kMod << sh;
    if (sh != 0) hi ^= kMod >> (64 - sh);
  }
  constexpr std::uint64_t kMask =
      M == 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << M) - 1);
  return lo & kMask;
}

// Log/antilog tables for small fields. exp_table has 2^(M+1) entries so
// that exp[log[a] + log[b]] works without a modular reduction.
template <unsigned M>
struct LogTables {
  std::array<std::uint16_t, (std::size_t{1} << M)> log{};
  std::array<std::uint16_t, (std::size_t{1} << (M + 1))> exp{};
  std::uint64_t generator = 0;

  LogTables() {
    const std::uint64_t order = (std::uint64_t{1} << M) - 1;
    // Find a generator: try successive elements until one has full order.
    for (std::uint64_t g = 2;; ++g) {
      std::uint64_t x = 1;
      bool full_order = true;
      for (std::uint64_t e = 1; e < order; ++e) {
        x = clmul_reduce<M>(x, g);
        if (x == 1) {
          full_order = false;
          break;
        }
      }
      x = clmul_reduce<M>(x, g);
      if (full_order && x == 1) {
        generator = g;
        break;
      }
    }
    std::uint64_t x = 1;
    for (std::uint64_t e = 0; e < order; ++e) {
      exp[e] = static_cast<std::uint16_t>(x);
      exp[e + order] = static_cast<std::uint16_t>(x);
      log[x] = static_cast<std::uint16_t>(e);
      x = clmul_reduce<M>(x, generator);
    }
    // Two extra slots so exp[log a + log b] is always in range.
    exp[2 * order] = 1;
    exp[2 * order + 1] = static_cast<std::uint16_t>(generator);
  }
};

template <unsigned M>
const LogTables<M>& log_tables() {
  static const LogTables<M> tables;
  return tables;
}

}  // namespace gf2_detail

// A GF(2^m) element. Satisfies the FiniteField concept.
template <unsigned M>
class GF2 {
  static_assert(M >= 4 && M <= 64);

 public:
  static constexpr unsigned kBits = M;
  static constexpr unsigned kBytes = (M + 7) / 8;
  static constexpr std::uint64_t kMask =
      M == 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << M) - 1);

  constexpr GF2() = default;

  static constexpr GF2 zero() { return GF2{}; }
  static constexpr GF2 one() { return GF2{1}; }
  // Any bit pattern is a valid element; extra high bits are masked off so
  // `from_uint(random_bits)` is a uniform sample.
  static constexpr GF2 from_uint(std::uint64_t v) { return GF2{v & kMask}; }

  [[nodiscard]] constexpr std::uint64_t to_uint() const { return v_; }
  [[nodiscard]] constexpr bool is_zero() const { return v_ == 0; }

  friend GF2 operator+(GF2 a, GF2 b) {
    count_add();
    return GF2{a.v_ ^ b.v_};
  }
  // Characteristic 2: subtraction is addition.
  friend GF2 operator-(GF2 a, GF2 b) { return a + b; }
  GF2 operator-() const { return *this; }

  friend GF2 operator*(GF2 a, GF2 b) {
    count_mul();
    return GF2{mul_raw(a.v_, b.v_)};
  }
  friend GF2 operator/(GF2 a, GF2 b) { return a * b.inv(); }

  GF2& operator+=(GF2 o) { return *this = *this + o; }
  GF2& operator-=(GF2 o) { return *this = *this - o; }
  GF2& operator*=(GF2 o) { return *this = *this * o; }
  GF2& operator/=(GF2 o) { return *this = *this / o; }

  // Multiplicative inverse by Fermat (a^(2^m - 2)); counted as a single
  // inversion so the operation-count metrics match the paper's model
  // (which treats inversions during interpolation as a unit).
  [[nodiscard]] GF2 inv() const {
    DPRBG_CHECK(v_ != 0);
    count_inv();
    if constexpr (M <= 16) {
      const auto& t = gf2_detail::log_tables<M>();
      const std::uint64_t order = (std::uint64_t{1} << M) - 1;
      return GF2{static_cast<std::uint64_t>(t.exp[order - t.log[v_]])};
    } else {
      // a^(2^m - 2) = prod of squarings: the addition-chain below performs
      // m-1 squarings and m-2 multiplies.
      std::uint64_t result = 1;
      std::uint64_t base = v_;  // base = a^(2^i)
      for (unsigned i = 1; i < M; ++i) {
        base = mul_raw(base, base);
        result = mul_raw(result, base);
      }
      return GF2{result};
    }
  }

  [[nodiscard]] GF2 pow(std::uint64_t e) const {
    std::uint64_t result = 1;
    std::uint64_t base = v_;
    while (e != 0) {
      if (e & 1u) result = mul_raw(result, base);
      base = mul_raw(base, base);
      e >>= 1;
    }
    return GF2{result};
  }

  friend constexpr bool operator==(GF2 a, GF2 b) = default;

 private:
  constexpr explicit GF2(std::uint64_t v) : v_(v) {}

  // Raw multiply without metric accounting (used inside inv/pow so the
  // counters reflect protocol-level operations, not micro-steps).
  static std::uint64_t mul_raw(std::uint64_t a, std::uint64_t b) {
    if (a == 0 || b == 0) return 0;
    if constexpr (M <= 16) {
      const auto& t = gf2_detail::log_tables<M>();
      return t.exp[t.log[a] + t.log[b]];
    } else {
      // Hardware PCLMUL when available (gf2_clmul.h); bit-for-bit the
      // same canonical remainder as the software loop, ~20x faster.
      if (gf2_detail::clmul_hw) {
        if constexpr (M == 64) {
          return gf2_detail::clmul_hw_mul64(a, b);
        } else {
          return gf2_detail::clmul_hw_mul(a, b, M, gf2_detail::modulus<M>());
        }
      }
      return gf2_detail::clmul_reduce<M>(a, b);
    }
  }

  std::uint64_t v_ = 0;
};

// The fields used throughout the repository. GF2_64 is the production
// default (security parameter k = 64); GF2_8 is used by the soundness
// experiments where the error probability 1/p must be large enough to
// observe.
using GF2_8 = GF2<8>;
using GF2_16 = GF2<16>;
using GF2_32 = GF2<32>;
using GF2_64 = GF2<64>;

}  // namespace dprbg
