// Field-axiom and implementation tests for GF(2^m).

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "gf/gf2.h"
#include "rng/chacha.h"

namespace dprbg {
namespace {

template <typename F>
class Gf2FieldTest : public ::testing::Test {};

using FieldTypes = ::testing::Types<GF2<4>, GF2_8, GF2_16, GF2<24>, GF2_32,
                                    GF2<40>, GF2<48>, GF2<56>, GF2_64>;
TYPED_TEST_SUITE(Gf2FieldTest, FieldTypes);

TYPED_TEST(Gf2FieldTest, AdditiveIdentityAndSelfInverse) {
  Chacha rng(1);
  for (int i = 0; i < 200; ++i) {
    const auto a = random_element<TypeParam>(rng);
    EXPECT_EQ(a + TypeParam::zero(), a);
    EXPECT_TRUE((a + a).is_zero());  // char 2
    EXPECT_EQ(a - a, TypeParam::zero());
  }
}

TYPED_TEST(Gf2FieldTest, MultiplicativeIdentityAndZero) {
  Chacha rng(2);
  for (int i = 0; i < 200; ++i) {
    const auto a = random_element<TypeParam>(rng);
    EXPECT_EQ(a * TypeParam::one(), a);
    EXPECT_TRUE((a * TypeParam::zero()).is_zero());
  }
}

TYPED_TEST(Gf2FieldTest, MultiplicationCommutesAndAssociates) {
  Chacha rng(3);
  for (int i = 0; i < 200; ++i) {
    const auto a = random_element<TypeParam>(rng);
    const auto b = random_element<TypeParam>(rng);
    const auto c = random_element<TypeParam>(rng);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a * b) * c, a * (b * c));
  }
}

TYPED_TEST(Gf2FieldTest, Distributivity) {
  Chacha rng(4);
  for (int i = 0; i < 200; ++i) {
    const auto a = random_element<TypeParam>(rng);
    const auto b = random_element<TypeParam>(rng);
    const auto c = random_element<TypeParam>(rng);
    EXPECT_EQ(a * (b + c), a * b + a * c);
  }
}

TYPED_TEST(Gf2FieldTest, InverseRoundTrip) {
  Chacha rng(5);
  for (int i = 0; i < 200; ++i) {
    const auto a = random_nonzero<TypeParam>(rng);
    EXPECT_EQ(a * a.inv(), TypeParam::one());
    EXPECT_EQ((a / a), TypeParam::one());
  }
}

TYPED_TEST(Gf2FieldTest, FrobeniusFixedField) {
  // x^(2^m) == x for every field element — this holds iff the modulus is
  // irreducible (otherwise the ring has nilpotents/zero divisors breaking
  // it), so this test certifies the constants in gf2_detail::modulus.
  Chacha rng(6);
  for (int i = 0; i < 50; ++i) {
    const auto a = random_element<TypeParam>(rng);
    auto x = a;
    for (unsigned s = 0; s < TypeParam::kBits; ++s) x = x * x;
    EXPECT_EQ(x, a);
  }
}

TYPED_TEST(Gf2FieldTest, NoZeroDivisors) {
  Chacha rng(7);
  for (int i = 0; i < 200; ++i) {
    const auto a = random_nonzero<TypeParam>(rng);
    const auto b = random_nonzero<TypeParam>(rng);
    EXPECT_FALSE((a * b).is_zero());
  }
}

TYPED_TEST(Gf2FieldTest, PowMatchesRepeatedMultiplication) {
  Chacha rng(8);
  const auto a = random_nonzero<TypeParam>(rng);
  auto acc = TypeParam::one();
  for (unsigned e = 0; e < 20; ++e) {
    EXPECT_EQ(a.pow(e), acc);
    acc = acc * a;
  }
}

TYPED_TEST(Gf2FieldTest, FromUintMasksHighBits) {
  const auto a = TypeParam::from_uint(~std::uint64_t{0});
  EXPECT_EQ(a.to_uint(), TypeParam::kMask);
}

TEST(Gf2SmallFieldTest, Gf16ExhaustiveInverse) {
  for (std::uint64_t v = 1; v < 16; ++v) {
    const auto a = GF2<4>::from_uint(v);
    EXPECT_EQ(a * a.inv(), GF2<4>::one()) << "v=" << v;
  }
}

TEST(Gf2SmallFieldTest, Gf16MultiplicativeGroupOrder) {
  // Every nonzero element's order divides 15.
  for (std::uint64_t v = 1; v < 16; ++v) {
    const auto a = GF2<4>::from_uint(v);
    EXPECT_EQ(a.pow(15), GF2<4>::one()) << "v=" << v;
  }
}

TEST(Gf2SmallFieldTest, Gf256KnownProducts) {
  // AES field (modulus 0x1B): well-known vector 0x57 * 0x83 = 0xC1.
  const auto a = GF2_8::from_uint(0x57);
  const auto b = GF2_8::from_uint(0x83);
  EXPECT_EQ((a * b).to_uint(), 0xC1u);
  // And 0x57 * 0x13 = 0xFE from the AES specification.
  EXPECT_EQ((a * GF2_8::from_uint(0x13)).to_uint(), 0xFEu);
}

TEST(Gf2SmallFieldTest, TableAndGenericAgree) {
  // GF2<16> uses log tables; recompute products with the generic clmul
  // path and compare.
  Chacha rng(9);
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t a = rng.next_u64() & 0xFFFF;
    const std::uint64_t b = rng.next_u64() & 0xFFFF;
    const std::uint64_t via_table =
        (GF2_16::from_uint(a) * GF2_16::from_uint(b)).to_uint();
    const std::uint64_t via_clmul = gf2_detail::clmul_reduce<16>(a, b);
    EXPECT_EQ(via_table, via_clmul);
  }
}

// Hardware PCLMUL vs the software shift-XOR loop: both must produce the
// same canonical remainder for every wide field (gf2_clmul.h contract).
// Gated on the CPU, not on the clmul_hw latch, so the differential also
// runs under DPRBG_FORCE_SCALAR; skipped only on hosts without PCLMUL.
template <unsigned M>
void clmul_hw_differential(std::uint64_t seed) {
  if (!gf2_detail::pclmul_supported()) GTEST_SKIP() << "CPU has no PCLMUL";
  Chacha rng(seed);
  const std::uint64_t mask = (std::uint64_t{1} << M) - 1;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t a = rng.next_u64() & mask;
    const std::uint64_t b = rng.next_u64() & mask;
    const std::uint64_t hw =
        gf2_detail::clmul_hw_mul(a, b, M, gf2_detail::modulus<M>());
    const std::uint64_t soft = gf2_detail::clmul_reduce<M>(a, b);
    ASSERT_EQ(hw, soft) << "M=" << M << " a=" << a << " b=" << b;
  }
  // Boundary values: all-ones, single top bit, zero, one.
  for (std::uint64_t a : {std::uint64_t{0}, std::uint64_t{1}, mask,
                          std::uint64_t{1} << (M - 1)}) {
    for (std::uint64_t b : {std::uint64_t{0}, std::uint64_t{1}, mask,
                            std::uint64_t{1} << (M - 1)}) {
      ASSERT_EQ(gf2_detail::clmul_hw_mul(a, b, M, gf2_detail::modulus<M>()),
                (gf2_detail::clmul_reduce<M>(a, b)));
    }
  }
}

TEST(Gf2ClmulHwTest, M24) { clmul_hw_differential<24>(24); }
TEST(Gf2ClmulHwTest, M32) { clmul_hw_differential<32>(32); }
TEST(Gf2ClmulHwTest, M40) { clmul_hw_differential<40>(40); }
TEST(Gf2ClmulHwTest, M48) { clmul_hw_differential<48>(48); }
TEST(Gf2ClmulHwTest, M56) { clmul_hw_differential<56>(56); }

// GF(2^64) takes the fixed two-fold routine, not the loop above. It is
// tested whenever the CPU has PCLMUL — also under DPRBG_FORCE_SCALAR,
// which only stops gf2.h from dispatching to it. GF2_64's operator*, on
// whichever path this process dispatches to, is checked the same way.

// Software 64x64 -> 128-bit carry-less product, as (hi, lo).
std::pair<std::uint64_t, std::uint64_t> clmul128(std::uint64_t a,
                                                 std::uint64_t b) {
  std::uint64_t hi = 0, lo = 0;
  for (unsigned i = 0; i < 64; ++i) {
    if ((b >> i) & 1u) {
      lo ^= a << i;
      if (i != 0) hi ^= a >> (64 - i);
    }
  }
  return {hi, lo};
}

// True iff reducing a*b needs the second fold: the first fold's product
// hi * (x^4+x^3+x+1) spills past x^64.
bool second_fold_fires(std::uint64_t a, std::uint64_t b) {
  return clmul128(clmul128(a, b).first, gf2_detail::modulus<64>()).first != 0;
}

std::vector<std::uint64_t> fold_edge_operands() {
  return {0,
          1,
          2,
          0x1B,
          ~std::uint64_t{0},
          std::uint64_t{1} << 63,
          (std::uint64_t{1} << 63) | 1,
          0xF000000000000000ull,
          0xFFFFFFFF00000000ull,
          0x8000000080000000ull,
          0xAAAAAAAAAAAAAAAAull,
          0x5555555555555555ull,
          0xFEDCBA9876543210ull};
}

TEST(Gf2Clmul64Test, FixedFoldMatchesSoftwareOnFoldEdges) {
  if (!gf2_detail::pclmul_supported()) GTEST_SKIP() << "CPU has no PCLMUL";
  const auto ops = fold_edge_operands();
  unsigned both_folds = 0;
  for (const std::uint64_t a : ops) {
    for (const std::uint64_t b : ops) {
      ASSERT_EQ(gf2_detail::clmul_hw_mul64(a, b),
                gf2_detail::clmul_reduce<64>(a, b))
          << std::hex << "a=" << a << " b=" << b;
      if (second_fold_fires(a, b)) ++both_folds;
    }
  }
  // The edge set really exercises the second fold (top bits, all-ones).
  EXPECT_TRUE(second_fold_fires(~std::uint64_t{0}, ~std::uint64_t{0}));
  EXPECT_TRUE(
      second_fold_fires(std::uint64_t{1} << 63, std::uint64_t{1} << 63));
  EXPECT_GT(both_folds, 10u);
  // Identities.
  for (const std::uint64_t a : ops) {
    EXPECT_EQ(gf2_detail::clmul_hw_mul64(a, 0), 0u);
    EXPECT_EQ(gf2_detail::clmul_hw_mul64(0, a), 0u);
    EXPECT_EQ(gf2_detail::clmul_hw_mul64(a, 1), a);
    EXPECT_EQ(gf2_detail::clmul_hw_mul64(1, a), a);
  }
}

TEST(Gf2Clmul64Test, DispatchedMultiplyMatchesSoftware) {
  Chacha rng(64065);
  std::vector<std::uint64_t> ops = fold_edge_operands();
  for (int i = 0; i < 1000; ++i) ops.push_back(rng.next_u64());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const std::uint64_t a = ops[i];
    const std::uint64_t b = ops[(i * 7 + 3) % ops.size()];
    ASSERT_EQ((GF2_64::from_uint(a) * GF2_64::from_uint(b)).to_uint(),
              gf2_detail::clmul_reduce<64>(a, b))
        << std::hex << "a=" << a << " b=" << b
        << " clmul_hw=" << gf2_detail::clmul_hw;
  }
}

// 10^5 random pairs through the fixed two-fold routine that GF2_64's
// operator* dispatches to when clmul_hw is set.
TEST(Gf2ClmulHwTest, M64) {
  if (!gf2_detail::pclmul_supported()) GTEST_SKIP() << "CPU has no PCLMUL";
  Chacha rng(64064);
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t a = rng.next_u64();
    const std::uint64_t b = rng.next_u64();
    ASSERT_EQ(gf2_detail::clmul_hw_mul64(a, b),
              gf2_detail::clmul_reduce<64>(a, b))
        << std::hex << "a=" << a << " b=" << b;
  }
}

TEST(Gf2MetricsTest, OperationsAreCounted) {
  const FieldCounters before = field_counters();
  const auto a = GF2_64::from_uint(123);
  const auto b = GF2_64::from_uint(456);
  auto c = a + b;
  c = c * a;
  (void)c.inv();
  const FieldCounters delta = field_counters() - before;
  EXPECT_EQ(delta.adds, 1u);
  EXPECT_EQ(delta.muls, 1u);
  EXPECT_EQ(delta.invs, 1u);
}

}  // namespace
}  // namespace dprbg
