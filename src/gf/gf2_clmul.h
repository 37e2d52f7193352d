// Hardware carry-less multiplication for GF(2^m), m > 16.
//
// gf2.h's software `clmul_reduce` is a shift-and-XOR bit loop — hundreds
// of cycles per product — and GF2_64 multiplication is the single hottest
// operation of every wide-batch protocol run (Horner combinations touch
// O(n*M) of them per round). On x86 the PCLMULQDQ instruction computes
// the 128-bit carry-less product in one instruction; reduction modulo the
// low-weight field polynomial folds the high bits back down.
//
// Two routines:
//  * clmul_hw_mul64 — the protocol field GF(2^64), f = x^64+x^4+x^3+x+1.
//    The modulus is a constant, so reduction is exactly two folds with no
//    loop and no runtime m: the product's high limb h (deg <= 62) times
//    the tail 0x1B spills at most 3 bits past x^64, and that spill times
//    0x1B (deg <= 6) lands inside the low limb.
//  * clmul_hw_mul — any 16 < m < 64, folding in a loop (<= 3 passes)
//    because the overflow position depends on m.
//
// Both return the canonical remainder mod f, bit-for-bit identical to
// clmul_reduce<M> (remainders of degree < m are unique), so switching
// paths never changes protocol outputs — tests/gf2_test.cpp asserts the
// differential.
//
// Dispatch: `clmul_hw` latches once per process — CPU support (PCLMUL +
// SSE4.1) and not DPRBG_FORCE_SCALAR (env var or CMake option). gf2.h
// consults it on the m > 16 multiply path. The inline variable
// zero-initializes to false, so any multiplication that races static
// initialization simply takes the (correct) software path.

#pragma once

#include <cstdint>

namespace dprbg::gf2_detail {

// True iff the PCLMUL path should be used: hardware support and not
// forced scalar. Reads the environment once.
[[nodiscard]] bool clmul_hw_probe();

inline const bool clmul_hw = clmul_hw_probe();

// (a * b) mod (x^64 + x^4 + x^3 + x + 1). Call only on a CPU with PCLMUL
// (clmul_hw, or simd::pclmul_supported() in tests).
[[nodiscard]] std::uint64_t clmul_hw_mul64(std::uint64_t a, std::uint64_t b);

// (a * b) mod (x^m + mod) with deg a, deg b < m and 16 < m < 64.
// Canonical result (degree < m). Call only when clmul_hw is true.
[[nodiscard]] std::uint64_t clmul_hw_mul(std::uint64_t a, std::uint64_t b,
                                         unsigned m, std::uint64_t mod);

}  // namespace dprbg::gf2_detail
