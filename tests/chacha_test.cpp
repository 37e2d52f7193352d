// Tests for the ChaCha20-based deterministic CSPRNG.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "gf/gf2.h"
#include "rng/chacha.h"

namespace dprbg {
namespace {

TEST(ChachaTest, DeterministicUnderSeed) {
  Chacha a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(ChachaTest, StreamsAreIndependent) {
  Chacha a(42, 0), b(42, 1);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(ChachaTest, DifferentSeedsDiffer) {
  Chacha a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(ChachaTest, BitBalance) {
  // Each of the 64 bit positions should be ~50% ones over many draws.
  Chacha rng(7);
  constexpr int kDraws = 20000;
  std::array<int, 64> ones{};
  for (int i = 0; i < kDraws; ++i) {
    std::uint64_t v = rng.next_u64();
    for (int b = 0; b < 64; ++b) ones[b] += (v >> b) & 1;
  }
  for (int b = 0; b < 64; ++b) {
    const double frac = double(ones[b]) / kDraws;
    EXPECT_NEAR(frac, 0.5, 0.02) << "bit " << b;
  }
}

TEST(ChachaTest, UniformBoundIsRespectedAndRoughlyUniform) {
  Chacha rng(11);
  constexpr std::uint64_t kBound = 10;
  std::array<int, kBound> counts{};
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) {
    const std::uint64_t v = rng.uniform(kBound);
    ASSERT_LT(v, kBound);
    ++counts[v];
  }
  for (std::uint64_t v = 0; v < kBound; ++v) {
    EXPECT_NEAR(double(counts[v]) / kDraws, 0.1, 0.02);
  }
}

TEST(ChachaTest, FillBytesCoversPartialWords) {
  Chacha a(3), b(3);
  std::vector<std::uint8_t> buf(13);
  a.fill_bytes(buf);
  // Consuming the same stream word-wise must produce the same prefix.
  std::vector<std::uint8_t> expected;
  while (expected.size() < 13) {
    const std::uint32_t w = b.next_u32();
    for (int i = 0; i < 4 && expected.size() < 13; ++i) {
      expected.push_back(static_cast<std::uint8_t>(w >> (8 * i)));
    }
  }
  EXPECT_EQ(buf, expected);
}

TEST(ChachaTest, NoShortCycles) {
  Chacha rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 10000; ++i) seen.insert(rng.next_u64());
  EXPECT_EQ(seen.size(), 10000u);  // birthday collision over 2^64 ~ never
}

TEST(ChachaTest, RandomFieldElementIsInRange) {
  Chacha rng(9);
  for (int i = 0; i < 1000; ++i) {
    const auto e = random_element<GF2_8>(rng);
    EXPECT_LE(e.to_uint(), 0xFFu);
  }
}

TEST(ChachaTest, RandomNonzeroNeverZero) {
  Chacha rng(10);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(random_nonzero<GF2<4>>(rng).is_zero());
  }
}

TEST(ChachaTest, FieldElementDistributionRoughlyUniform) {
  // Chi-squared-ish sanity over GF(2^4): 16 buckets.
  Chacha rng(13);
  std::array<int, 16> counts{};
  constexpr int kDraws = 64000;
  for (int i = 0; i < kDraws; ++i) {
    ++counts[random_element<GF2<4>>(rng).to_uint()];
  }
  for (int v = 0; v < 16; ++v) {
    EXPECT_NEAR(double(counts[v]) / kDraws, 1.0 / 16, 0.01);
  }
}

// RFC 8439 section 2.3.2's block-function test vector (key 00:01:..:1f,
// nonce 00:00:00:09:00:00:00:4a:00:00:00:00, block count 1); Python's
// `cryptography` ChaCha20 reproduces it offline. RFC 8439 splits words
// 12-15 into a 32-bit counter and a 96-bit nonce; in this generator's
// layout the counter is words 12-13, so the nonce's first word becomes
// the 64-bit counter's high half.
TEST(ChachaTest, Rfc8439BlockFunctionVector) {
  const std::array<std::uint32_t, 16> state = {
      0x61707865, 0x3320646e, 0x79622d32, 0x6b206574,  // constants
      0x03020100, 0x07060504, 0x0b0a0908, 0x0f0e0d0c,  // key
      0x13121110, 0x17161514, 0x1b1a1918, 0x1f1e1d1c,
      0,          0,          0x4a000000, 0x00000000,  // counter, nonce
  };
  const std::uint64_t counter = 1 | (std::uint64_t{0x09000000} << 32);
  const std::array<std::uint32_t, 16> expect = {
      0xe4e7f110, 0x15593bd1, 0x1fdd0f50, 0xc47120a3,
      0xc7f4d1c7, 0x0368c033, 0x9aaa2204, 0x4e6cd4c3,
      0x466482d2, 0x09aa9f07, 0x05d7c214, 0xa2028bd9,
      0xd19c12b5, 0xb94e16de, 0xe883d0cb, 0x4e3c50a2,
  };
  std::array<std::uint32_t, 16> one{};
  chacha_block(state, counter, one);
  EXPECT_EQ(one, expect);
  std::array<std::uint32_t, 64> four{};
  chacha_blocks4(state, counter, four);
  EXPECT_TRUE(std::equal(expect.begin(), expect.end(), four.begin()));
}

// The 4-block refill is four single blocks at consecutive counters,
// including where the counter carries from word 12 into word 13 and
// where it wraps at 2^64.
TEST(ChachaTest, FourBlocksEqualFourSingleBlocks) {
  Chacha rng(17);
  std::array<std::uint32_t, 16> state{};
  for (auto& w : state) w = rng.next_u32();
  for (const std::uint64_t counter :
       {std::uint64_t{0}, std::uint64_t{5}, std::uint64_t{0xFFFFFFFD},
        std::uint64_t{0xFFFFFFFF}, std::uint64_t{0x1FFFFFFFE},
        ~std::uint64_t{0} - 1}) {
    std::array<std::uint32_t, 64> four{};
    chacha_blocks4(state, counter, four);
    for (std::uint64_t k = 0; k < 4; ++k) {
      std::array<std::uint32_t, 16> one{};
      chacha_block(state, counter + k, one);
      EXPECT_TRUE(std::equal(one.begin(), one.end(), four.begin() + 16 * k))
          << "counter " << counter << " block " << k;
    }
  }
}

}  // namespace
}  // namespace dprbg
