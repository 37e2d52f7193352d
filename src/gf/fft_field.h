// The paper's special field GF(q^l) with O(l log l) multiplication
// (Section 2, "Model"):
//
//   "Let q be a prime and l an integer such that q >= 2l+1 and q^l >= 2^k.
//    We work over GF(q^l). We view the field elements as degree l
//    polynomials over Z_q. Then we use discrete Fourier transforms to do
//    the multiplication, modulo some irreducible polynomial, in O(l log l)
//    operations over Z_q."
//
// The paper omits the details; this file supplies them:
//  * q is chosen as the smallest prime with q >= 2l+1 and q ≡ 1 (mod N),
//    where N is the smallest power of two >= 2l-1, so Z_q contains the
//    N-th roots of unity needed for a radix-2 NTT,
//  * the modulus is a uniformly random monic degree-l polynomial accepted
//    by Rabin's irreducibility test,
//  * multiplication runs: forward NTT of both operands (zero-padded to N),
//    pointwise product, inverse NTT, then reduction modulo the field
//    polynomial via a precomputed table of x^(l+i) mod f.
//
// A naive O(l^2) schoolbook multiply is also provided so experiment E1 can
// reproduce the paper's remark that naive GF(2^k) wins for small k.

#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "gf/zq.h"

namespace dprbg {

// An element of GF(q^l): coefficients c[0..l-1] over Z_q, low degree
// first. Fixed-capacity so elements are cheap value types.
struct FftElem {
  static constexpr unsigned kMaxL = 256;
  std::array<std::uint32_t, kMaxL> c{};

  friend bool operator==(const FftElem&, const FftElem&) = default;
};

class FftField {
 public:
  // Builds GF(q^l). `seed` drives the random search for an irreducible
  // modulus (deterministic for reproducibility).
  explicit FftField(unsigned l, std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  [[nodiscard]] unsigned l() const { return l_; }
  [[nodiscard]] std::uint32_t q() const { return zq_.q(); }
  // log2(|field|), the effective security parameter k = l * log2(q).
  [[nodiscard]] double bits() const;
  // The irreducible modulus f (degree l, monic; coefficient of x^l is 1 and
  // omitted: modulus()[i] is the coefficient of x^i, i < l).
  [[nodiscard]] const std::vector<std::uint32_t>& modulus() const {
    return modulus_;
  }

  [[nodiscard]] FftElem zero() const { return {}; }
  [[nodiscard]] FftElem one() const;
  // Builds an element from arbitrary bits (coefficients taken mod q); used
  // for deterministic test vectors, not uniform sampling.
  [[nodiscard]] FftElem from_uint(std::uint64_t v) const;
  // Element from l caller-supplied 32-bit words, each reduced mod q. The
  // reduction bias is ~q/2^32 per coefficient; this field is a substrate
  // for the E1 arithmetic benchmark, not a protocol sampling path, so the
  // bias is irrelevant here.
  [[nodiscard]] FftElem from_words(const std::uint32_t* words) const;

  [[nodiscard]] bool is_zero(const FftElem& a) const;
  [[nodiscard]] FftElem add(const FftElem& a, const FftElem& b) const;
  [[nodiscard]] FftElem sub(const FftElem& a, const FftElem& b) const;
  [[nodiscard]] FftElem neg(const FftElem& a) const;
  // NTT-based multiplication: O(l log l) operations over Z_q.
  [[nodiscard]] FftElem mul(const FftElem& a, const FftElem& b) const;
  // Schoolbook multiplication: O(l^2) operations over Z_q (for E1).
  [[nodiscard]] FftElem mul_naive(const FftElem& a, const FftElem& b) const;
  // Crossover-dispatched multiplication: schoolbook below kNttCrossoverL,
  // NTT at or above it. mul() and mul_naive() stay explicit so experiment
  // E1 can measure both sides of the crossover; production callers that
  // just want "the fast one" use this.
  [[nodiscard]] FftElem mul_auto(const FftElem& a, const FftElem& b) const {
    return mul_impl(a, b, /*use_ntt=*/l_ >= kNttCrossoverL);
  }
  // Elementwise out[i] = a[i] * b[i] through the crossover-dispatched
  // path. The per-stage twiddle tables and NTT scratch stay hot in cache
  // across the batch, which is where the wide-batch pipeline hands whole
  // rounds of products at once.
  void mul_batch(std::span<const FftElem> a, std::span<const FftElem> b,
                 std::span<FftElem> out) const;
  // Fermat inverse: a^(q^l - 2).
  [[nodiscard]] FftElem inv(const FftElem& a) const;
  [[nodiscard]] FftElem pow(const FftElem& a, std::uint64_t e) const;

  // Smallest l where the NTT multiply beats schoolbook end-to-end in
  // every recording of `bench/field_ops --sweep-M` (EXPERIMENTS.md E20):
  // schoolbook's tight O(l^2) inner loop wins through l = 32 on its
  // constant factors, l = 64 goes either way by host, and from l = 128
  // up the O(l log l) path is ahead (1.6-2.4x at 128, 4.5-6.3x at 256)
  // and the gap widens with l. Matches E1's crossover at
  // k ~ 1-3 x 10^3 bits (k ~ 31 l).
  static constexpr unsigned kNttCrossoverL = 128;

  // In-place radix-2 NTT over Z_q; a.size() must equal ntt_size().
  // Public so the property tests can exercise round-trips and the size
  // contract directly. Butterflies are plain Barrett loops (Zq::reduce)
  // over per-stage contiguous twiddle tables.
  void ntt(std::span<std::uint32_t> a, bool inverse) const;
  [[nodiscard]] unsigned ntt_size() const { return ntt_size_; }

 private:
  // Reduce a degree <= 2l-2 polynomial modulo f using the x^(l+i) table.
  [[nodiscard]] FftElem reduce(const std::vector<std::uint32_t>& prod) const;
  [[nodiscard]] FftElem mul_impl(const FftElem& a, const FftElem& b,
                                 bool use_ntt) const;

  // Rabin's irreducibility test over Z_q[x].
  [[nodiscard]] bool is_irreducible(
      const std::vector<std::uint32_t>& f) const;

  unsigned l_;
  Zq zq_;
  std::vector<std::uint32_t> modulus_;  // coefficients of f below x^l
  unsigned ntt_size_ = 0;               // power of two >= 2l-1
  std::vector<std::uint32_t> ntt_roots_;      // forward twiddles
  std::vector<std::uint32_t> ntt_inv_roots_;  // inverse twiddles
  std::uint32_t ntt_size_inv_ = 0;            // 1/N mod q
  // Per-stage contiguous twiddles: stage_twiddles_[s][j] = w^(j * N/len)
  // for stage s (len = 2^(s+1)), so each butterfly stage walks a dense
  // table instead of the strided roots[j*step] gather.
  std::vector<std::vector<std::uint32_t>> stage_twiddles_;
  std::vector<std::vector<std::uint32_t>> stage_inv_twiddles_;
  // reduction_[i] = x^(l+i) mod f, for i in [0, l-2], stored as sparse
  // (coefficient index, value) pairs — a single pair per row when the
  // modulus is a binomial x^l - a.
  std::vector<std::vector<std::pair<std::uint16_t, std::uint32_t>>>
      reduction_;
};

}  // namespace dprbg
