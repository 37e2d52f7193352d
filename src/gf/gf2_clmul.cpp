#include "gf/gf2_clmul.h"

#include "gf/zq_simd.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define DPRBG_X86 1
#endif

namespace dprbg::gf2_detail {

bool clmul_hw_probe() {
  return simd::pclmul_supported() && !simd::force_scalar();
}

#ifdef DPRBG_X86

__attribute__((target("pclmul,sse4.1"))) std::uint64_t clmul_hw_mul64(
    std::uint64_t a, std::uint64_t b) {
  // Tail of x^64 + x^4 + x^3 + x + 1 (gf2.h modulus<64>()).
  const __m128i tail = _mm_cvtsi64_si128(0x1B);
  const __m128i p = _mm_clmulepi64_si128(
      _mm_cvtsi64_si128(static_cast<long long>(a)),
      _mm_cvtsi64_si128(static_cast<long long>(b)), 0x00);
  // Fold 1: p = hi*x^64 + lo ≡ lo + hi*tail. deg(hi*tail) <= 62 + 4, so
  // the fold's own high limb holds at most 3 bits.
  const __m128i f1 = _mm_clmulepi64_si128(p, tail, 0x01);
  // Fold 2: those bits times the tail have degree <= 6 — no high limb.
  const __m128i f2 = _mm_clmulepi64_si128(f1, tail, 0x01);
  return static_cast<std::uint64_t>(
      _mm_cvtsi128_si64(_mm_xor_si128(_mm_xor_si128(p, f1), f2)));
}

__attribute__((target("pclmul,sse4.1"))) std::uint64_t clmul_hw_mul(
    std::uint64_t a, std::uint64_t b, unsigned m, std::uint64_t mod) {
  const __m128i pa = _mm_cvtsi64_si128(static_cast<long long>(a));
  const __m128i pb = _mm_cvtsi64_si128(static_cast<long long>(b));
  const __m128i p = _mm_clmulepi64_si128(pa, pb, 0x00);
  std::uint64_t lo = static_cast<std::uint64_t>(_mm_cvtsi128_si64(p));
  std::uint64_t hi =
      static_cast<std::uint64_t>(_mm_extract_epi64(p, 1));
  const std::uint64_t mask = (std::uint64_t{1} << m) - 1;
  const __m128i pm = _mm_cvtsi64_si128(static_cast<long long>(mod));
  // Fold the overflow T = p >> m back in via x^m ≡ mod (mod f):
  // p ≡ (p mod x^m) ⊕ T*mod. The product has < 2m < 128 bits, so T
  // always fits one 64-bit limb; each fold shrinks the overflow by
  // ~(m - deg mod) bits and the loop terminates in <= 3 passes.
  for (;;) {
    const std::uint64_t t = (lo >> m) | (hi << (64 - m));
    if (t == 0) break;
    hi = 0;
    lo &= mask;
    const __m128i f = _mm_clmulepi64_si128(
        _mm_cvtsi64_si128(static_cast<long long>(t)), pm, 0x00);
    lo ^= static_cast<std::uint64_t>(_mm_cvtsi128_si64(f));
    hi ^= static_cast<std::uint64_t>(_mm_extract_epi64(f, 1));
  }
  return lo & mask;
}

#else

// Unreachable: clmul_hw_probe() is false off x86.
std::uint64_t clmul_hw_mul64(std::uint64_t, std::uint64_t) { return 0; }

std::uint64_t clmul_hw_mul(std::uint64_t, std::uint64_t, unsigned,
                           std::uint64_t) {
  return 0;
}

#endif

}  // namespace dprbg::gf2_detail
