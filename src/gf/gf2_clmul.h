// Hardware carry-less multiplication for GF(2^m), m > 16.
//
// gf2.h's software `clmul_reduce` is a shift-and-XOR bit loop — hundreds
// of cycles per product — and GF2_64 multiplication is the single hottest
// operation of every wide-batch protocol run (Horner combinations touch
// O(n*M) of them per round). On x86 the PCLMULQDQ instruction computes
// the 128-bit carry-less product in one instruction; reduction modulo the
// low-weight field polynomial folds the high bits back down.
//
// Single products:
//  * clmul_hw_mul64 — the protocol field GF(2^64), f = x^64+x^4+x^3+x+1.
//    The modulus is a constant, so reduction is exactly two folds with no
//    loop and no runtime m: the product's high limb h (deg <= 62) times
//    the tail 0x1B spills at most 3 bits past x^64, and that spill times
//    0x1B (deg <= 6) lands inside the low limb.
//  * clmul_hw_mul — any 16 < m < 64, folding in a loop (<= 3 passes)
//    because the overflow position depends on m.
//
// Share-row block kernels (GF(2^64) only), with the multiply inlined in
// their loops so no product is a function call:
//  * clmul_eval_block64 — Horner evaluation of many polynomials at one
//    small point x < kOneFoldBound. Then the product's high limb has
//    degree <= 58, its fold times the tail stays below x^64, and one fold
//    suffices: two PCLMULs per multiply instead of three.
//  * clmul_combine_block64 — the Horner combination sum_j row[j] r^(j+1)
//    of many rows under one challenge r (a full-width element: two folds).
// Each call adds to FieldCounters exactly what the scalar loops it
// replaces count, so trace budgets cannot tell the paths apart.
//
// All routines return the canonical remainder mod f, bit-for-bit
// identical to clmul_reduce<M> (remainders of degree < m are unique), so
// switching paths never changes protocol outputs — tests/gf2_test.cpp
// and tests/block_kernels_test.cpp assert the differentials.
//
// Dispatch: `clmul_hw` latches once per process — CPU support (PCLMUL +
// SSE4.1) and not forced scalar by the DPRBG_FORCE_SCALAR environment
// variable (any value but "0" pins the portable path). gf2.h
// consults it on the m > 16 multiply path, poly/polynomial.h and
// poly/interpolate.h before the block kernels. The inline variable
// zero-initializes to false, so any multiplication that races static
// initialization simply takes the (correct) software path.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace dprbg {

template <unsigned M>
class GF2;  // gf/gf2.h

namespace gf2_detail {

// True iff the CPU has PCLMUL and SSE4.1, regardless of
// DPRBG_FORCE_SCALAR. Tests gate hardware-vs-software differentials on it
// so they also run when the latch is forced off.
[[nodiscard]] bool pclmul_supported();

// True iff the PCLMUL path should be used: pclmul_supported() and
// DPRBG_FORCE_SCALAR unset, empty or "0". Reads the environment once.
[[nodiscard]] bool clmul_hw_probe();

inline const bool clmul_hw = clmul_hw_probe();

// (a * b) mod (x^64 + x^4 + x^3 + x + 1). Call only on a CPU with PCLMUL
// (clmul_hw, or pclmul_supported() in tests).
[[nodiscard]] std::uint64_t clmul_hw_mul64(std::uint64_t a, std::uint64_t b);

// (a * b) mod (x^m + mod) with deg a, deg b < m and 16 < m < 64.
// Canonical result (degree < m). Same CPU requirement as clmul_hw_mul64.
[[nodiscard]] std::uint64_t clmul_hw_mul(std::uint64_t a, std::uint64_t b,
                                         unsigned m, std::uint64_t mod);

// Evaluation points below this bound take clmul_eval_block64's one-fold
// multiply. Every Shamir point eval_point(i) = i + 1 <= n is far below.
inline constexpr std::uint64_t kOneFoldBound = std::uint64_t{1} << 60;

// out[p] = the Horner value at x of polynomial p, whose coefficients are
// coeffs[p * stride, (p + 1) * stride), low degree first, for p < count.
// Each polynomial runs the scalar loop's sequence acc = acc * x + c_i
// from its top nonzero coefficient down (starting at acc = 0), so it
// counts its trimmed length in adds and in muls. Requires
// x < kOneFoldBound and clmul_hw.
void clmul_eval_block64(const GF2<64>* coeffs, std::size_t stride,
                        std::size_t count, std::uint64_t x, GF2<64>* out);

// out[i] = sum_{j=1..m} rows[i][j-1] * r^j, by the Horner sequence
// acc = (acc + rows[i][j]) * r from j = m-1 down to 0. Requires clmul_hw
// and out.size() == rows.size(). Counts rows.size() * m adds and muls.
void clmul_combine_block64(std::span<const GF2<64>* const> rows,
                           std::size_t m, GF2<64> r,
                           std::span<GF2<64>> out);

}  // namespace gf2_detail
}  // namespace dprbg
