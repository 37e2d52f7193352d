#include "gf/gf2_clmul.h"

#include <algorithm>
#include <cstdlib>

#include "common/metrics.h"
#include "gf/gf2.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define DPRBG_X86 1
#endif

namespace dprbg::gf2_detail {

bool pclmul_supported() {
#ifdef DPRBG_X86
  return __builtin_cpu_supports("pclmul") != 0 &&
         __builtin_cpu_supports("sse4.1") != 0;
#else
  return false;
#endif
}

bool clmul_hw_probe() {
  const char* e = std::getenv("DPRBG_FORCE_SCALAR");
  const bool forced =
      e != nullptr && e[0] != '\0' && !(e[0] == '0' && e[1] == '\0');
  return pclmul_supported() && !forced;
}

#ifdef DPRBG_X86

namespace {

// The block kernels count n adds and n muls per call, the scalar loops'
// per-element add and multiply.
void count_ops(std::uint64_t n) {
  FieldCounters& c = field_counters();
  c.adds += n;
  c.muls += n;
}

#define DPRBG_CLMUL_INLINE \
  __attribute__((target("pclmul,sse4.1"), always_inline)) inline

// Tail of x^64 + x^4 + x^3 + x + 1 (gf2.h modulus<64>()).
DPRBG_CLMUL_INLINE __m128i tail64() { return _mm_cvtsi64_si128(0x1B); }

DPRBG_CLMUL_INLINE __m128i lift(std::uint64_t v) {
  return _mm_cvtsi64_si128(static_cast<long long>(v));
}

DPRBG_CLMUL_INLINE std::uint64_t low(__m128i v) {
  return static_cast<std::uint64_t>(_mm_cvtsi128_si64(v));
}

// Element loads and stores straight between memory and the low limb of
// a vector register (the block kernels keep accumulators in registers;
// __m128i accesses may alias any type).
DPRBG_CLMUL_INLINE __m128i load(const GF2<64>* e) {
  return _mm_loadl_epi64(reinterpret_cast<const __m128i*>(e));
}

DPRBG_CLMUL_INLINE void store(GF2<64>* e, __m128i v) {
  _mm_storel_epi64(reinterpret_cast<__m128i*>(e), v);
}

// a * b mod f for any a, b (low limbs): two folds. The result is the low
// limb; the high limb holds junk that every later PCLMUL here ignores.
DPRBG_CLMUL_INLINE __m128i mul_two_fold(__m128i a, __m128i b) {
  const __m128i tail = tail64();
  const __m128i p = _mm_clmulepi64_si128(a, b, 0x00);
  // Fold 1: p = hi*x^64 + lo ≡ lo + hi*tail. deg(hi*tail) <= 62 + 4, so
  // the fold's own high limb holds at most 3 bits.
  const __m128i f1 = _mm_clmulepi64_si128(p, tail, 0x01);
  // Fold 2: those bits times the tail have degree <= 6 — no high limb.
  const __m128i f2 = _mm_clmulepi64_si128(f1, tail, 0x01);
  return _mm_xor_si128(_mm_xor_si128(p, f1), f2);
}

// a * x mod f for x < kOneFoldBound: deg(hi) <= 63 + 59 - 64 = 58, so
// hi*tail has degree <= 62 and no second fold is needed. Low limb as in
// mul_two_fold.
DPRBG_CLMUL_INLINE __m128i mul_one_fold(__m128i a, __m128i x) {
  const __m128i p = _mm_clmulepi64_si128(a, x, 0x00);
  const __m128i f = _mm_clmulepi64_si128(p, tail64(), 0x01);
  return _mm_xor_si128(p, f);
}

#undef DPRBG_CLMUL_INLINE

}  // namespace

__attribute__((target("pclmul,sse4.1"))) std::uint64_t clmul_hw_mul64(
    std::uint64_t a, std::uint64_t b) {
  return low(mul_two_fold(lift(a), lift(b)));
}

__attribute__((target("pclmul,sse4.1"))) std::uint64_t clmul_hw_mul(
    std::uint64_t a, std::uint64_t b, unsigned m, std::uint64_t mod) {
  const __m128i p = _mm_clmulepi64_si128(lift(a), lift(b), 0x00);
  std::uint64_t lo = low(p);
  std::uint64_t hi =
      static_cast<std::uint64_t>(_mm_extract_epi64(p, 1));
  const std::uint64_t mask = (std::uint64_t{1} << m) - 1;
  const __m128i pm = lift(mod);
  // Fold the overflow T = p >> m back in via x^m ≡ mod (mod f):
  // p ≡ (p mod x^m) ⊕ T*mod. The product has < 2m < 128 bits, so T
  // always fits one 64-bit limb; each fold shrinks the overflow by
  // ~(m - deg mod) bits and the loop terminates in <= 3 passes.
  for (;;) {
    const std::uint64_t t = (lo >> m) | (hi << (64 - m));
    if (t == 0) break;
    hi = 0;
    lo &= mask;
    const __m128i f = _mm_clmulepi64_si128(lift(t), pm, 0x00);
    lo ^= low(f);
    hi ^= static_cast<std::uint64_t>(_mm_extract_epi64(f, 1));
  }
  return lo & mask;
}

__attribute__((target("pclmul,sse4.1"))) void clmul_eval_block64(
    const GF2<64>* coeffs, std::size_t stride, std::size_t count,
    std::uint64_t x, GF2<64>* out) {
  const __m128i xv = lift(x);
  std::uint64_t ops = 0;
  for (std::size_t p = 0; p < count; ++p) {
    const GF2<64>* c = coeffs + p * stride;
    std::size_t len = stride;
    while (len > 0 && c[len - 1].is_zero()) --len;
    ops += len;
    if (len == 0) {
      out[p] = GF2<64>::zero();
      continue;
    }
    // The loop's first step, 0 * x + c[len-1], is c[len-1]; it is counted
    // above, not computed.
    __m128i acc = load(c + len - 1);
    for (std::size_t j = len - 1; j-- > 0;) {
      acc = _mm_xor_si128(mul_one_fold(acc, xv), load(c + j));
    }
    store(out + p, acc);
  }
  count_ops(ops);
}

__attribute__((target("pclmul,sse4.1"))) void clmul_combine_block64(
    std::span<const GF2<64>* const> rows, std::size_t m, GF2<64> r,
    std::span<GF2<64>> out) {
  count_ops(static_cast<std::uint64_t>(rows.size()) * m);
  // Rows are tiled so each column step runs kTile independent Horner
  // chains: the multiplies of a tile overlap instead of waiting on one
  // another's latency.
  constexpr std::size_t kTile = 8;
  const __m128i rv = lift(r.to_uint());
  __m128i acc[kTile];
  for (std::size_t r0 = 0; r0 < rows.size(); r0 += kTile) {
    const std::size_t tile = std::min(kTile, rows.size() - r0);
    const GF2<64>* const* tr = rows.data() + r0;
    for (std::size_t t = 0; t < tile; ++t) acc[t] = _mm_setzero_si128();
    for (std::size_t j = m; j-- > 0;) {
      for (std::size_t t = 0; t < tile; ++t) {
        acc[t] = mul_two_fold(_mm_xor_si128(acc[t], load(tr[t] + j)), rv);
      }
    }
    for (std::size_t t = 0; t < tile; ++t) store(&out[r0 + t], acc[t]);
  }
}

#else

// Unreachable: clmul_hw_probe() is false off x86.
std::uint64_t clmul_hw_mul64(std::uint64_t, std::uint64_t) { return 0; }

std::uint64_t clmul_hw_mul(std::uint64_t, std::uint64_t, unsigned,
                           std::uint64_t) {
  return 0;
}

void clmul_eval_block64(const GF2<64>*, std::size_t, std::size_t,
                        std::uint64_t, GF2<64>*) {}

void clmul_combine_block64(std::span<const GF2<64>* const>, std::size_t,
                           GF2<64>, std::span<GF2<64>>) {}

#endif

}  // namespace dprbg::gf2_detail
