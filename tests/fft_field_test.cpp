// Tests for the paper's special field GF(q^l) (Section 2 construction).

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/metrics.h"
#include "gf/fft_field.h"
#include "gf/zq.h"
#include "rng/chacha.h"

namespace dprbg {
namespace {

FftElem random_elem(const FftField& f, Chacha& rng) {
  std::uint32_t words[FftElem::kMaxL];
  for (unsigned i = 0; i < f.l(); ++i) words[i] = rng.next_u32();
  return f.from_words(words);
}

TEST(ZqTest, PrimalityCheck) {
  EXPECT_TRUE(Zq::is_prime(2));
  EXPECT_TRUE(Zq::is_prime(17));
  EXPECT_TRUE(Zq::is_prime(257));
  EXPECT_TRUE(Zq::is_prime(65537));
  EXPECT_FALSE(Zq::is_prime(1));
  EXPECT_FALSE(Zq::is_prime(91));   // 7 * 13
  EXPECT_FALSE(Zq::is_prime(65535));
}

TEST(ZqTest, TabulatedArithmeticMatchesDirect) {
  const Zq small(257);  // tabulated
  ASSERT_TRUE(small.tabulated());
  for (std::uint32_t a = 0; a < 257; a += 13) {
    for (std::uint32_t b = 0; b < 257; b += 17) {
      EXPECT_EQ(small.mul(a, b), (a * b) % 257);
      EXPECT_EQ(small.add(a, b), (a + b) % 257);
      EXPECT_EQ(small.sub(a, b), (a + 257 - b) % 257);
    }
  }
}

// Above the table limit Zq multiplies by Barrett reduction, which the
// l = 256 NTT runs in every butterfly. Check it, and the branch-free add
// and sub, against % for primes up to the largest below 2^31, on
// residues that include 0, 1, q-2 and q-1, and on arbitrary 64-bit
// inputs to reduce().
TEST(ZqTest, UntabulatedArithmeticMatchesModulo) {
  for (const std::uint32_t q : {1031u, 7681u, 65537u, 2147483629u}) {
    const Zq zq(q);
    ASSERT_FALSE(zq.tabulated()) << "q=" << q;
    Chacha rng(q);
    std::vector<std::uint32_t> vals = {0, 1, q - 2, q - 1};
    for (int i = 0; i < 100; ++i) vals.push_back(rng.next_u32() % q);
    for (const std::uint32_t a : vals) {
      for (const std::uint32_t b : vals) {
        ASSERT_EQ(zq.mul(a, b), std::uint64_t{a} * b % q)
            << "q=" << q << " a=" << a << " b=" << b;
        ASSERT_EQ(zq.add(a, b), (std::uint64_t{a} + b) % q)
            << "q=" << q << " a=" << a << " b=" << b;
        ASSERT_EQ(zq.sub(a, b), (std::uint64_t{a} + q - b) % q)
            << "q=" << q << " a=" << a << " b=" << b;
      }
    }
    for (int i = 0; i < 1000; ++i) {
      const std::uint64_t p = rng.next_u64();
      ASSERT_EQ(zq.reduce(p), p % q) << "q=" << q << " p=" << p;
    }
    EXPECT_EQ(zq.reduce(~std::uint64_t{0}), ~std::uint64_t{0} % q);
  }
}

TEST(ZqTest, InverseAndPow) {
  const Zq zq(101);
  for (std::uint32_t a = 1; a < 101; ++a) {
    EXPECT_EQ(zq.mul(a, zq.inv(a)), 1u);
  }
  EXPECT_EQ(zq.pow(2, 100), 1u);  // Fermat
}

TEST(ZqTest, GeneratorHasFullOrder) {
  const Zq zq(97);
  const std::uint32_t g = zq.find_generator();
  // Order of g must be exactly 96: g^96 = 1 and g^(96/p) != 1 for p | 96.
  EXPECT_EQ(zq.pow(g, 96), 1u);
  EXPECT_NE(zq.pow(g, 48), 1u);
  EXPECT_NE(zq.pow(g, 32), 1u);
}

TEST(ZqTest, RootOfUnityExactOrder) {
  const Zq zq(97);  // 96 = 2^5 * 3
  const std::uint32_t w = zq.root_of_unity(32);
  EXPECT_EQ(zq.pow(w, 32), 1u);
  EXPECT_NE(zq.pow(w, 16), 1u);
}

class FftFieldTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(FftFieldTest, ConstructionSatisfiesPaperConstraints) {
  const unsigned l = GetParam();
  const FftField f(l);
  // Paper: q prime, q >= 2l + 1.
  EXPECT_TRUE(Zq::is_prime(f.q()));
  EXPECT_GE(f.q(), 2 * l + 1);
  EXPECT_EQ(f.modulus().size(), l);
}

TEST_P(FftFieldTest, NttAndNaiveMultiplicationAgree) {
  const unsigned l = GetParam();
  const FftField f(l);
  Chacha rng(42 + l);
  for (int i = 0; i < 50; ++i) {
    const FftElem a = random_elem(f, rng);
    const FftElem b = random_elem(f, rng);
    EXPECT_EQ(f.mul(a, b), f.mul_naive(a, b));
  }
}

TEST_P(FftFieldTest, FieldAxioms) {
  const unsigned l = GetParam();
  const FftField f(l);
  Chacha rng(7 + l);
  for (int i = 0; i < 30; ++i) {
    const FftElem a = random_elem(f, rng);
    const FftElem b = random_elem(f, rng);
    const FftElem c = random_elem(f, rng);
    EXPECT_EQ(f.add(a, b), f.add(b, a));
    EXPECT_EQ(f.mul(a, b), f.mul(b, a));
    EXPECT_EQ(f.mul(f.mul(a, b), c), f.mul(a, f.mul(b, c)));
    EXPECT_EQ(f.mul(a, f.add(b, c)), f.add(f.mul(a, b), f.mul(a, c)));
    EXPECT_EQ(f.add(a, f.neg(a)), f.zero());
    EXPECT_EQ(f.mul(a, f.one()), a);
  }
}

TEST_P(FftFieldTest, InverseRoundTrip) {
  const unsigned l = GetParam();
  const FftField f(l);
  Chacha rng(99 + l);
  for (int i = 0; i < 20; ++i) {
    FftElem a = random_elem(f, rng);
    if (f.is_zero(a)) continue;
    EXPECT_EQ(f.mul(a, f.inv(a)), f.one());
  }
}

// The Fermat inverse a^(q^l - 2) the field used before the extended
// Euclid, exponentiated through the base-q digits of q^l - 2, which are
// (q-2, q-1, ..., q-1): an independent oracle, too slow for large l.
FftElem fermat_inverse(const FftField& f, const FftElem& a) {
  FftElem result = f.pow(a, f.q() - 2);
  FftElem frob = a;
  for (unsigned i = 1; i < f.l(); ++i) {
    frob = f.pow(frob, f.q());  // a^(q^i)
    result = f.mul(result, f.pow(frob, f.q() - 1));
  }
  return result;
}

TEST(FftFieldInverseTest, EuclidMatchesFermatAndCountsOneInverse) {
  for (const unsigned l : {2u, 8u, 32u}) {
    const FftField f(l);
    Chacha rng(7 + l);
    for (int i = 0; i < 20; ++i) {
      const FftElem a = i == 0 ? f.one() : random_elem(f, rng);
      if (f.is_zero(a)) continue;
      const FieldCounters before = field_counters();
      const FftElem inv = f.inv(a);
      const FieldCounters after = field_counters();
      EXPECT_EQ(after.invs - before.invs, 1u) << "l=" << l;
      EXPECT_EQ(after.muls, before.muls) << "l=" << l;
      EXPECT_EQ(inv, fermat_inverse(f, a)) << "l=" << l << " rep " << i;
    }
  }
}

TEST_P(FftFieldTest, NoZeroDivisors) {
  const unsigned l = GetParam();
  const FftField f(l);
  Chacha rng(123 + l);
  for (int i = 0; i < 30; ++i) {
    FftElem a = random_elem(f, rng);
    FftElem b = random_elem(f, rng);
    if (f.is_zero(a) || f.is_zero(b)) continue;
    EXPECT_FALSE(f.is_zero(f.mul(a, b)));
  }
}

// l = 256 is the one supported size whose prime (q = 7681) is too large
// for Zq's tables, so it is the only instantiation whose NTT and
// schoolbook multiply run untabulated Barrett arithmetic.
INSTANTIATE_TEST_SUITE_P(Sizes, FftFieldTest,
                         ::testing::Values(2u, 3u, 4u, 8u, 16u, 32u, 64u, 128u,
                                           256u));

TEST(FftFieldTest, SecurityParameterGrowsWithL) {
  const FftField small(8);
  const FftField large(32);
  EXPECT_GT(large.bits(), small.bits());
  EXPECT_GE(small.bits(), 8.0);  // q >= 17 => >= ~4 bits per coefficient
}

TEST(FftFieldTest, DeterministicConstruction) {
  const FftField a(16, 123);
  const FftField b(16, 123);
  EXPECT_EQ(a.q(), b.q());
  EXPECT_EQ(a.modulus(), b.modulus());
}

// --- Wide-batch compute engine additions (DESIGN.md §14) ---

// Randomized ring properties of the NTT multiply checked against
// schoolbook as the independent oracle: associativity and distributivity
// computed with mul() must equal the same expressions computed with
// mul_naive().
TEST_P(FftFieldTest, NttRingPropertiesMatchSchoolbook) {
  const unsigned l = GetParam();
  const FftField f(l);
  Chacha rng(2024 + l);
  for (int i = 0; i < 20; ++i) {
    const FftElem a = random_elem(f, rng);
    const FftElem b = random_elem(f, rng);
    const FftElem c = random_elem(f, rng);
    EXPECT_EQ(f.mul(f.mul(a, b), c),
              f.mul_naive(f.mul_naive(a, b), c));
    EXPECT_EQ(f.mul(a, f.add(b, c)),
              f.add(f.mul_naive(a, b), f.mul_naive(a, c)));
  }
}

// Forward-then-inverse NTT is the identity, at every supported l (each l
// exercises a different transform size / twiddle-stage table).
TEST_P(FftFieldTest, NttRoundTripIsIdentity) {
  const unsigned l = GetParam();
  const FftField f(l);
  Chacha rng(31337 + l);
  for (int i = 0; i < 10; ++i) {
    std::vector<std::uint32_t> a(f.ntt_size());
    for (auto& x : a) x = rng.next_u32() % f.q();
    const std::vector<std::uint32_t> orig = a;
    f.ntt(a, /*inverse=*/false);
    f.ntt(a, /*inverse=*/true);
    EXPECT_EQ(a, orig) << "l=" << l;
  }
}

// Inputs whose every coefficient is q - 1, the largest residue: every
// butterfly and pointwise product then reduces (q - 1)^2 or (q - 1) * w,
// the values that sit closest to the Barrett step's bounds.
TEST_P(FftFieldTest, ValuesHuggingQ) {
  const unsigned l = GetParam();
  const FftField f(l);
  const std::uint32_t top = f.q() - 1;
  std::vector<std::uint32_t> a(f.ntt_size(), top);
  f.ntt(a, /*inverse=*/false);
  f.ntt(a, /*inverse=*/true);
  EXPECT_EQ(a, std::vector<std::uint32_t>(f.ntt_size(), top)) << "l=" << l;
  FftElem x;
  for (unsigned i = 0; i < l; ++i) x.c[i] = top;
  EXPECT_EQ(f.mul(x, x), f.mul_naive(x, x)) << "l=" << l;
  EXPECT_EQ(f.mul(x, f.one()), x) << "l=" << l;
}

// mul_auto agrees with both explicit paths on both sides of the
// crossover (it IS one of them, and the two agree with each other).
TEST_P(FftFieldTest, MulAutoAgreesWithExplicitPaths) {
  const unsigned l = GetParam();
  const FftField f(l);
  Chacha rng(555 + l);
  for (int i = 0; i < 20; ++i) {
    const FftElem a = random_elem(f, rng);
    const FftElem b = random_elem(f, rng);
    const FftElem expect = f.mul_naive(a, b);
    EXPECT_EQ(f.mul_auto(a, b), expect);
  }
}

TEST_P(FftFieldTest, MulBatchMatchesElementwise) {
  const unsigned l = GetParam();
  const FftField f(l);
  Chacha rng(777 + l);
  std::vector<FftElem> a, b;
  for (int i = 0; i < 33; ++i) {
    a.push_back(random_elem(f, rng));
    b.push_back(random_elem(f, rng));
  }
  std::vector<FftElem> out(a.size());
  f.mul_batch(a, b, out);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(out[i], f.mul_auto(a[i], b[i])) << "i=" << i;
  }
}

// The transform size contract: ntt() rejects buffers that are not
// exactly ntt_size() (in particular non-power-of-two sizes).
TEST(FftFieldDeathTest, NttRejectsWrongSizes) {
  const FftField f(16);
  std::vector<std::uint32_t> wrong(f.ntt_size() - 1, 0);
  EXPECT_DEATH(f.ntt(wrong, false), "DPRBG_CHECK");
  std::vector<std::uint32_t> odd(f.ntt_size() + 3, 0);
  EXPECT_DEATH(f.ntt(odd, true), "DPRBG_CHECK");
  std::vector<std::uint32_t> empty;
  EXPECT_DEATH(f.ntt(empty, false), "DPRBG_CHECK");
}

TEST(FftFieldTest, CrossoverConstantIsInTestedRange) {
  // kNttCrossoverL is a benchmark-derived constant; keep it inside the
  // range the parameterized suites actually cover so both mul_auto arms
  // are exercised by the tests above.
  EXPECT_GE(FftField::kNttCrossoverL, 2u);
  EXPECT_LE(FftField::kNttCrossoverL, 128u);
}

}  // namespace
}  // namespace dprbg
