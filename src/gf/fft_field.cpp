#include "gf/fft_field.h"

#include <cmath>

#include "common/check.h"
#include "common/metrics.h"

namespace dprbg {

namespace {

// Dense polynomial helpers over Z_q, used only during field construction
// (irreducibility testing), so clarity beats speed here. Polynomials are
// coefficient vectors, low degree first, with no trailing zeros.

using Poly = std::vector<std::uint32_t>;

void trim(Poly& p) {
  while (!p.empty() && p.back() == 0) p.pop_back();
}

Poly poly_mul(const Zq& zq, const Poly& a, const Poly& b) {
  if (a.empty() || b.empty()) return {};
  Poly out(a.size() + b.size() - 1, 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] == 0) continue;
    for (std::size_t j = 0; j < b.size(); ++j) {
      out[i + j] = zq.add(out[i + j], zq.mul(a[i], b[j]));
    }
  }
  trim(out);
  return out;
}

// a mod f, where f is monic.
Poly poly_mod(const Zq& zq, Poly a, const Poly& f) {
  DPRBG_CHECK(!f.empty() && f.back() == 1);
  trim(a);
  while (a.size() >= f.size()) {
    const std::uint32_t lead = a.back();
    const std::size_t shift = a.size() - f.size();
    if (lead != 0) {
      for (std::size_t i = 0; i < f.size(); ++i) {
        a[shift + i] = zq.sub(a[shift + i], zq.mul(lead, f[i]));
      }
    }
    a.pop_back();
    trim(a);
    if (a.size() < f.size()) break;
  }
  return a;
}

// x^e mod f by square and multiply; e can be astronomically large so it is
// given as repeated squaring count + base exponent: we just need x^(q^j).
Poly poly_powmod_x_q_to(const Zq& zq, const Poly& f, unsigned j) {
  // Compute x^q mod f once, then iterate Frobenius via exponentiation:
  // x^(q^j) = (x^(q^(j-1)))^q. Each step is a powmod with exponent q.
  Poly cur = {0, 1};  // x
  cur = poly_mod(zq, cur, f);
  for (unsigned step = 0; step < j; ++step) {
    // cur <- cur^q mod f
    Poly result = {1};
    Poly base = cur;
    std::uint64_t e = zq.q();
    while (e != 0) {
      if (e & 1u) result = poly_mod(zq, poly_mul(zq, result, base), f);
      base = poly_mod(zq, poly_mul(zq, base, base), f);
      e >>= 1;
    }
    cur = result;
  }
  return cur;
}

Poly poly_sub(const Zq& zq, Poly a, const Poly& b) {
  if (a.size() < b.size()) a.resize(b.size(), 0);
  for (std::size_t i = 0; i < b.size(); ++i) a[i] = zq.sub(a[i], b[i]);
  trim(a);
  return a;
}

Poly poly_gcd(const Zq& zq, Poly a, Poly b) {
  trim(a);
  trim(b);
  while (!b.empty()) {
    // Make b monic for poly_mod.
    const std::uint32_t lead_inv = zq.inv(b.back());
    Poly monic = b;
    for (auto& c : monic) c = zq.mul(c, lead_inv);
    Poly r = poly_mod(zq, a, monic);
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

std::vector<unsigned> prime_divisors(unsigned n) {
  std::vector<unsigned> out;
  for (unsigned p = 2; p * p <= n; ++p) {
    if (n % p == 0) {
      out.push_back(p);
      while (n % p == 0) n /= p;
    }
  }
  if (n > 1) out.push_back(n);
  return out;
}

// Simple xorshift for the deterministic modulus search.
std::uint64_t splitmix(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

unsigned next_pow2(unsigned n) {
  unsigned p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

FftField::FftField(unsigned l, std::uint64_t seed) : l_(l), zq_([&] {
  DPRBG_CHECK(l >= 2 && l <= FftElem::kMaxL);
  // N-point NTT needs N | q-1; products have degree <= 2l-2, so N >= 2l-1.
  const unsigned n = next_pow2(2 * l - 1);
  // Paper constraint q >= 2l+1 plus the NTT constraint q ≡ 1 (mod N).
  std::uint32_t q = n + 1;
  while (q < 2 * l + 1 || !Zq::is_prime(q)) q += n;
  return Zq(q);
}()) {
  ntt_size_ = next_pow2(2 * l_ - 1);

  // Twiddle factors: w^i for the forward transform, w^-i for the inverse.
  const std::uint32_t w = zq_.root_of_unity(ntt_size_);
  ntt_roots_.resize(ntt_size_);
  ntt_inv_roots_.resize(ntt_size_);
  std::uint32_t wi = 1;
  for (unsigned i = 0; i < ntt_size_; ++i) {
    ntt_roots_[i] = wi;
    ntt_inv_roots_[i] = zq_.inv(wi);
    wi = zq_.mul(wi, w);
  }
  ntt_size_inv_ = zq_.inv(ntt_size_ % zq_.q());

  // Per-stage dense twiddle tables (header comment): stage s covers
  // len = 2^(s+1), needing len/2 twiddles w^(j * N/len). These replace
  // the strided roots[j*step] gathers so each block of a stage walks one
  // contiguous table.
  for (unsigned len = 2; len <= ntt_size_; len <<= 1) {
    const unsigned step = ntt_size_ / len;
    std::vector<std::uint32_t> fwd(len / 2), inv(len / 2);
    for (unsigned j = 0; j < len / 2; ++j) {
      fwd[j] = ntt_roots_[j * step];
      inv[j] = ntt_inv_roots_[j * step];
    }
    stage_twiddles_.push_back(std::move(fwd));
    stage_inv_twiddles_.push_back(std::move(inv));
  }

  // Irreducible modulus of degree l. Prefer a binomial x^l - a: its
  // reduction rows x^(l+i) ≡ a*x^i have a single nonzero coefficient, so
  // reduce() costs O(l) and the end-to-end multiply keeps the paper's
  // O(l log l) bound. Fall back to a random dense modulus (Rabin's test
  // accepts a random monic polynomial with probability ~1/l) if no
  // binomial of degree l is irreducible over this Z_q.
  bool found = false;
  for (std::uint32_t a = 1; a < zq_.q() && !found; ++a) {
    Poly f(l_ + 1, 0);
    f[0] = zq_.neg(a);
    f[l_] = 1;
    if (is_irreducible(f)) {
      modulus_.assign(f.begin(), f.end() - 1);
      found = true;
    }
  }
  std::uint64_t state = seed;
  while (!found) {
    Poly f(l_ + 1);
    for (unsigned i = 0; i < l_; ++i) {
      f[i] = static_cast<std::uint32_t>(splitmix(state) % zq_.q());
    }
    f[l_] = 1;
    if (is_irreducible(f)) {
      modulus_.assign(f.begin(), f.end() - 1);
      found = true;
    }
  }

  // Precompute x^(l+i) mod f for i in [0, l-2], stored sparsely (with a
  // binomial modulus each row has exactly one nonzero entry, keeping
  // reduce() at O(l) and the full multiply at the paper's O(l log l)).
  reduction_.resize(l_ > 1 ? l_ - 1 : 0);
  Poly x_pow(l_ + 1, 0);  // x^l
  x_pow[l_] = 1;
  Poly f_full = modulus_;
  f_full.push_back(1);
  Poly cur = poly_mod(zq_, x_pow, f_full);
  for (unsigned i = 0; i + 1 < l_; ++i) {
    cur.resize(l_, 0);
    reduction_[i].clear();
    for (unsigned j = 0; j < l_; ++j) {
      if (cur[j] != 0) {
        reduction_[i].push_back({static_cast<std::uint16_t>(j), cur[j]});
      }
    }
    // cur <- cur * x mod f
    Poly shifted(cur.size() + 1, 0);
    for (std::size_t j = 0; j < cur.size(); ++j) shifted[j + 1] = cur[j];
    cur = poly_mod(zq_, shifted, f_full);
  }
}

bool FftField::is_irreducible(const std::vector<std::uint32_t>& f) const {
  // Rabin: f (monic, degree l) is irreducible over Z_q iff
  //   x^(q^l) ≡ x (mod f), and
  //   gcd(x^(q^(l/r)) - x, f) = 1 for every prime r dividing l.
  const Poly x = {0, 1};
  Poly frob_l = poly_powmod_x_q_to(zq_, f, l_);
  if (poly_sub(zq_, frob_l, x) != Poly{}) return false;
  for (unsigned r : prime_divisors(l_)) {
    Poly frob = poly_powmod_x_q_to(zq_, f, l_ / r);
    Poly g = poly_gcd(zq_, poly_sub(zq_, frob, x), f);
    if (g.size() > 1) return false;  // nontrivial common factor
  }
  return true;
}

double FftField::bits() const { return l_ * std::log2(double(zq_.q())); }

FftElem FftField::one() const {
  FftElem e;
  e.c[0] = 1;
  return e;
}

FftElem FftField::from_uint(std::uint64_t v) const {
  FftElem e;
  for (unsigned i = 0; i < l_ && v != 0; ++i) {
    e.c[i] = static_cast<std::uint32_t>(v % zq_.q());
    v /= zq_.q();
  }
  return e;
}

FftElem FftField::from_words(const std::uint32_t* words) const {
  FftElem e;
  for (unsigned i = 0; i < l_; ++i) e.c[i] = words[i] % zq_.q();
  return e;
}

bool FftField::is_zero(const FftElem& a) const {
  for (unsigned i = 0; i < l_; ++i) {
    if (a.c[i] != 0) return false;
  }
  return true;
}

FftElem FftField::add(const FftElem& a, const FftElem& b) const {
  count_add();
  FftElem out;
  for (unsigned i = 0; i < l_; ++i) out.c[i] = zq_.add(a.c[i], b.c[i]);
  return out;
}

FftElem FftField::sub(const FftElem& a, const FftElem& b) const {
  count_add();
  FftElem out;
  for (unsigned i = 0; i < l_; ++i) out.c[i] = zq_.sub(a.c[i], b.c[i]);
  return out;
}

FftElem FftField::neg(const FftElem& a) const {
  FftElem out;
  for (unsigned i = 0; i < l_; ++i) out.c[i] = zq_.neg(a.c[i]);
  return out;
}

void FftField::ntt(std::span<std::uint32_t> a, bool inverse) const {
  DPRBG_CHECK(a.size() == ntt_size_);
  const unsigned n = ntt_size_;
  const auto& stages = inverse ? stage_inv_twiddles_ : stage_twiddles_;
  // Bit-reversal permutation.
  for (unsigned i = 1, j = 0; i < n; ++i) {
    unsigned bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
  unsigned s = 0;
  for (unsigned len = 2; len <= n; len <<= 1, ++s) {
    const unsigned half = len / 2;
    const std::uint32_t* tw = stages[s].data();
    for (unsigned i = 0; i < n; i += len) {
      std::uint32_t* lo = a.data() + i;
      std::uint32_t* hi = lo + half;
      for (unsigned j = 0; j < half; ++j) {
        const std::uint32_t u = lo[j];
        const std::uint32_t v = zq_.reduce(std::uint64_t{hi[j]} * tw[j]);
        lo[j] = zq_.add(u, v);
        hi[j] = zq_.sub(u, v);
      }
    }
  }
  if (inverse) {
    for (auto& x : a) x = zq_.reduce(std::uint64_t{x} * ntt_size_inv_);
  }
}

FftElem FftField::reduce(const std::vector<std::uint32_t>& prod) const {
  FftElem out;
  for (unsigned i = 0; i < l_; ++i) out.c[i] = prod[i];
  for (unsigned i = 0; i + 1 < l_ && l_ + i < prod.size(); ++i) {
    const std::uint32_t hi = prod[l_ + i];
    if (hi == 0) continue;
    for (const auto& [j, coeff] : reduction_[i]) {
      out.c[j] = zq_.add(out.c[j], zq_.mul(hi, coeff));
    }
  }
  return out;
}

FftElem FftField::mul_impl(const FftElem& a, const FftElem& b,
                           bool use_ntt) const {
  count_mul();
  // Scratch buffers are reused across calls (per thread) so the hot
  // multiply path does not allocate.
  thread_local std::vector<std::uint32_t> fa, fb;
  if (use_ntt) {
    fa.assign(ntt_size_, 0);
    fb.assign(ntt_size_, 0);
    for (unsigned i = 0; i < l_; ++i) {
      fa[i] = a.c[i];
      fb[i] = b.c[i];
    }
    ntt(std::span(fa), /*inverse=*/false);
    ntt(std::span(fb), /*inverse=*/false);
    for (unsigned i = 0; i < ntt_size_; ++i) {
      fa[i] = zq_.reduce(std::uint64_t{fa[i]} * fb[i]);
    }
    ntt(std::span(fa), /*inverse=*/true);
  } else {
    fa.assign(2 * l_ - 1, 0);
    for (unsigned i = 0; i < l_; ++i) {
      if (a.c[i] == 0) continue;
      for (unsigned j = 0; j < l_; ++j) {
        fa[i + j] = zq_.add(fa[i + j], zq_.mul(a.c[i], b.c[j]));
      }
    }
  }
  return reduce(fa);
}

FftElem FftField::mul(const FftElem& a, const FftElem& b) const {
  return mul_impl(a, b, /*use_ntt=*/true);
}

FftElem FftField::mul_naive(const FftElem& a, const FftElem& b) const {
  return mul_impl(a, b, /*use_ntt=*/false);
}

void FftField::mul_batch(std::span<const FftElem> a,
                         std::span<const FftElem> b,
                         std::span<FftElem> out) const {
  DPRBG_CHECK(a.size() == b.size() && a.size() == out.size());
  const bool use_ntt = l_ >= kNttCrossoverL;
  for (std::size_t i = 0; i < a.size(); ++i) {
    out[i] = mul_impl(a[i], b[i], use_ntt);
  }
}

FftElem FftField::pow(const FftElem& a, std::uint64_t e) const {
  FftElem result = one();
  FftElem base = a;
  while (e != 0) {
    if (e & 1u) result = mul(result, base);
    base = mul(base, base);
    e >>= 1;
  }
  return result;
}

FftElem FftField::inv(const FftElem& a) const {
  DPRBG_CHECK(!is_zero(a));
  count_inv();
  // Extended Euclid over Z_q[x], O(l^2) Z_q operations: keep
  // s_i * a ≡ r_i (mod f) for the remainder pair, starting from
  // (r0, s0) = (f, 0) and (r1, s1) = (a, 1). Since f is irreducible and
  // a ≠ 0 the remainders end at a nonzero constant r1, and
  // a^-1 = s1 / r1.
  Poly r0 = modulus_;
  r0.push_back(1);
  Poly r1(a.c.begin(), a.c.begin() + l_);
  trim(r1);
  Poly s0;
  Poly s1 = {1};
  while (r1.size() > 1) {
    // (r0, s0) -= Q * (r1, s1), where Q = r0 div r1, one term at a time.
    const std::uint32_t lead_inv = zq_.inv(r1.back());
    while (r0.size() >= r1.size()) {
      const std::uint32_t c = zq_.mul(r0.back(), lead_inv);
      const std::size_t shift = r0.size() - r1.size();
      for (std::size_t i = 0; i < r1.size(); ++i) {
        r0[shift + i] = zq_.sub(r0[shift + i], zq_.mul(c, r1[i]));
      }
      if (s0.size() < shift + s1.size()) s0.resize(shift + s1.size(), 0);
      for (std::size_t i = 0; i < s1.size(); ++i) {
        s0[shift + i] = zq_.sub(s0[shift + i], zq_.mul(c, s1[i]));
      }
      r0.pop_back();  // the leading term cancelled exactly
      trim(r0);
    }
    trim(s0);
    std::swap(r0, r1);
    std::swap(s0, s1);
  }
  DPRBG_CHECK(r1.size() == 1 && s1.size() <= l_);
  const std::uint32_t scale = zq_.inv(r1[0]);
  FftElem out;
  for (std::size_t i = 0; i < s1.size(); ++i) out.c[i] = zq_.mul(s1[i], scale);
  return out;
}

}  // namespace dprbg
