// Fuzz regression for every untrusted-byte decoder: seeded random,
// truncated, and oversized inputs must be rejected cleanly — nullopt (or
// a failed reader), no throw, no allocation driven by an unvalidated
// length. These decoders are exactly the surfaces a Byzantine sender (or
// a corrupting link, net/fault.h) controls.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "coin/bitgen.h"
#include "coin/coin_gen.h"
#include "common/serial.h"
#include "gf/field_io.h"
#include "gf/gf2.h"
#include "gradecast/gradecast.h"
#include "rng/chacha.h"

namespace dprbg {
namespace {

using F = GF2_64;

std::vector<std::uint8_t> random_bytes(Chacha& rng, std::size_t len) {
  std::vector<std::uint8_t> out(len);
  rng.fill_bytes(out);
  return out;
}

// Valid encodings to mutate: truncation and padding of a well-formed
// message probe different failure edges than pure noise.
constexpr unsigned kDim = 4;  // n - 3t at n = 7, t = 1

std::vector<std::uint8_t> valid_echo(int n) {
  const ReedSolomon rs(n, kDim);
  const std::vector<std::uint8_t> value(40, 3);  // 5 elements, 2 stripes
  return gradecast_detail::encode_echo(
      {value.size(), rs.symbol(rs.pack(value), n - 1)});
}

TEST(DecoderFuzzTest, DecodeEchoesRejectsGarbage) {
  const int n = 7;
  const std::size_t kMaxValue = 1u << 10;
  Chacha rng(2024, 0);
  for (int iter = 0; iter < 2000; ++iter) {
    const auto bytes = random_bytes(rng, rng.uniform(4 * 5 * n));
    const auto decoded =
        gradecast_detail::decode_echo(bytes, kDim, kMaxValue);
    if (decoded) {
      // Acceptance is fine only when the chunk respects the cap and
      // holds exactly the stripes its length needs.
      EXPECT_LE(decoded->length, kMaxValue);
      EXPECT_EQ(decoded->symbols.size(), rs_stripes(decoded->length, kDim));
      EXPECT_EQ(gradecast_detail::encode_echo(*decoded), bytes);
    }
  }
  // Truncations and oversizings of a valid message must all reject.
  const auto good = valid_echo(n);
  ASSERT_TRUE(gradecast_detail::decode_echo(good, kDim, kMaxValue));
  for (std::size_t cut = 0; cut < good.size(); ++cut) {
    const std::vector<std::uint8_t> trunc(good.begin(),
                                          good.begin() + cut);
    EXPECT_FALSE(gradecast_detail::decode_echo(trunc, kDim, kMaxValue))
        << "truncated at " << cut;
  }
  auto padded = good;
  padded.push_back(0);
  EXPECT_FALSE(gradecast_detail::decode_echo(padded, kDim, kMaxValue));
}

TEST(DecoderFuzzTest, DecodeEchoesNeverOverAllocates) {
  // A hostile length prefix far beyond the buffer (the GCC-flagged
  // alloc-size path): claim 4 GiB of value in a 40-byte message. Both the
  // cap and the stripe count are checked before any symbol is allocated.
  ByteWriter w;
  w.uvarint(0xFFFFFFFFull);  // the claimed length
  auto bytes = std::move(w).take();
  bytes.resize(40, 0xAB);
  EXPECT_FALSE(gradecast_detail::decode_echo(bytes, kDim, 1u << 20));
  EXPECT_FALSE(gradecast_detail::decode_echo(bytes, kDim, ~0ull));
}

TEST(DecoderFuzzTest, DecodeCliqueMsgRejectsGarbage) {
  const int n = 13;
  const unsigned t = 2;
  Chacha rng(2025, 0);
  for (int iter = 0; iter < 2000; ++iter) {
    const auto bytes =
        random_bytes(rng, rng.uniform(2 * (1 + n * (1 + (t + 1) * 8))));
    const auto decoded =
        coin_gen_detail::decode_clique_msg<F>(bytes, n, t);
    if (decoded) {
      EXPECT_LE(decoded->clique.size(), static_cast<std::size_t>(n));
      for (int j : decoded->clique) {
        EXPECT_GE(j, 0);
        EXPECT_LT(j, n);
      }
    }
  }
  // Hostile count byte: 255 entries claimed in a short message.
  std::vector<std::uint8_t> hostile{255, 1, 2, 3};
  EXPECT_FALSE(coin_gen_detail::decode_clique_msg<F>(hostile, n, t));
  // Entry count exceeding n with a consistent length must also reject.
  const std::size_t entry = 1 + (t + 1) * F::kBytes;
  std::vector<std::uint8_t> oversize(1 + (n + 1) * entry, 0);
  oversize[0] = static_cast<std::uint8_t>(n + 1);
  EXPECT_FALSE(coin_gen_detail::decode_clique_msg<F>(oversize, n, t));
  EXPECT_FALSE(
      coin_gen_detail::decode_clique_msg<F>(std::vector<std::uint8_t>{},
                                            n, t));
}

TEST(DecoderFuzzTest, DecodeComboBatchRejectsAllButTheExactShape) {
  const int n = 7;
  const std::size_t exact = n * (1 + F::kBytes);
  Chacha rng(2026, 0);
  for (int iter = 0; iter < 2000; ++iter) {
    const std::size_t len = rng.uniform(2 * exact);
    const auto bytes = random_bytes(rng, len);
    const auto decoded = bitgen_detail::decode_combo_batch<F>(bytes, n);
    EXPECT_EQ(decoded.has_value(), len == exact) << "len " << len;
  }
}

TEST(DecoderFuzzTest, DecodeElemRowRejectsAllButTheExactShape) {
  Chacha rng(2027, 0);
  for (int iter = 0; iter < 2000; ++iter) {
    const std::size_t count = rng.uniform(9);
    const std::size_t len = rng.uniform(2 * 8 * 8);
    const auto bytes = random_bytes(rng, len);
    const auto decoded = decode_elem_row<F>(bytes, count);
    EXPECT_EQ(decoded.has_value(), len == count * F::kBytes)
        << "count " << count << " len " << len;
    if (decoded) {
      EXPECT_EQ(decoded->size(), count);
    }
  }
}

TEST(DecoderFuzzTest, ByteReaderBulkReadIsBounded) {
  Chacha rng(2028, 0);
  for (int iter = 0; iter < 2000; ++iter) {
    const auto data = random_bytes(rng, rng.uniform(64));
    ByteReader r(data);
    const std::size_t want = rng.uniform(128);
    const std::size_t cap = rng.uniform(128);
    const auto got = r.bytes(want, cap);
    if (want <= cap && want <= data.size()) {
      EXPECT_TRUE(r.ok());
      EXPECT_EQ(got.size(), want);
      EXPECT_TRUE(std::equal(got.begin(), got.end(), data.begin()));
    } else {
      EXPECT_FALSE(r.ok());
      EXPECT_TRUE(got.empty());
      EXPECT_EQ(r.remaining(), 0u);  // failed readers park at the end
    }
  }
  // u64_vec's length guard still rejects hostile prefixes.
  ByteWriter w;
  w.u32(0xFFFFFFFFu);
  w.u64(1);
  const auto bytes = std::move(w).take();
  ByteReader r(bytes);
  EXPECT_TRUE(r.u64_vec().empty());
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace dprbg
