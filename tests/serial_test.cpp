// Tests for defensive serialization (ByteWriter/ByteReader) and field
// element I/O.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "common/serial.h"
#include "gf/field_io.h"
#include "gf/gf2.h"
#include "rng/chacha.h"

namespace dprbg {
namespace {

TEST(SerialTest, RoundTripScalars) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0xCDEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xCDEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_TRUE(r.done());
}

TEST(SerialTest, RoundTripU64Vector) {
  ByteWriter w;
  const std::vector<std::uint64_t> v = {1, 2, 3, 0xFFFFFFFFFFFFFFFFull};
  w.u64_vec(v);
  ByteReader r(w.data());
  EXPECT_EQ(r.u64_vec(), v);
  EXPECT_TRUE(r.done());
}

TEST(SerialTest, EmptyVectorRoundTrip) {
  ByteWriter w;
  w.u64_vec({});
  ByteReader r(w.data());
  EXPECT_TRUE(r.u64_vec().empty());
  EXPECT_TRUE(r.done());
}

TEST(SerialTest, TruncatedInputFailsGracefully) {
  ByteWriter w;
  w.u64(42);
  auto bytes = w.data();
  bytes.pop_back();
  ByteReader r(bytes);
  EXPECT_EQ(r.u64(), 0u);  // failed read returns zero
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.done());
}

TEST(SerialTest, OversizedVectorLengthRejected) {
  // A Byzantine sender claims a 2^31-element vector in a 10-byte message.
  ByteWriter w;
  w.u32(0x80000000u);
  w.u32(0);
  ByteReader r(w.data());
  EXPECT_TRUE(r.u64_vec().empty());
  EXPECT_FALSE(r.ok());
}

TEST(SerialTest, ReadPastEndStaysFailed) {
  ByteReader r(std::span<const std::uint8_t>{});
  EXPECT_EQ(r.u32(), 0u);
  EXPECT_EQ(r.u64(), 0u);  // still zero, no UB
  EXPECT_FALSE(r.ok());
}

TEST(SerialTest, DoneDetectsTrailingGarbage) {
  ByteWriter w;
  w.u32(7);
  w.u8(99);  // trailing byte the decoder does not expect
  ByteReader r(w.data());
  EXPECT_EQ(r.u32(), 7u);
  EXPECT_TRUE(r.ok());
  EXPECT_FALSE(r.done());
}

template <typename F>
class FieldIoTest : public ::testing::Test {};

using FieldTypes = ::testing::Types<GF2_8, GF2_16, GF2_32, GF2<40>, GF2_64>;
TYPED_TEST_SUITE(FieldIoTest, FieldTypes);

TYPED_TEST(FieldIoTest, ElementRoundTrip) {
  Chacha rng(1);
  for (int i = 0; i < 100; ++i) {
    const auto e = random_element<TypeParam>(rng);
    ByteWriter w;
    write_elem(w, e);
    EXPECT_EQ(w.size(), TypeParam::kBytes);
    ByteReader r(w.data());
    EXPECT_EQ(read_elem<TypeParam>(r), e);
    EXPECT_TRUE(r.done());
  }
}

TYPED_TEST(FieldIoTest, WireSizeMatchesSecurityParameter) {
  // A k-bit share costs ceil(k/8) bytes on the wire, matching the paper's
  // "messages of size k" accounting.
  EXPECT_EQ(TypeParam::kBytes, (TypeParam::kBits + 7) / 8);
}

// The memcpy row path is taken exactly for the 8-byte field on a
// little-endian host; every narrower field keeps the byte loop.
static_assert(kRowIsWireLayout<GF2_64> ==
              (std::endian::native == std::endian::little));
static_assert(!kRowIsWireLayout<GF2_8> && !kRowIsWireLayout<GF2_16> &&
              !kRowIsWireLayout<GF2_32> && !kRowIsWireLayout<GF2<40>>);

// write_elem_row emits the bytes of the per-element write_elem loop, and
// decode_elem_row inverts it, on whichever path the field takes.
TYPED_TEST(FieldIoTest, RowCodecMatchesPerElementLoop) {
  using F = TypeParam;
  Chacha rng(2);
  for (std::size_t count : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                            std::size_t{4097}}) {
    std::vector<F> row(count);
    for (auto& e : row) e = random_element<F>(rng);
    if (count > 1) {
      row[0] = F::zero();
      row[1] = F::from_uint(~std::uint64_t{0});  // every bit of the field
    }
    ByteWriter loop;
    loop.u8(0x5A);  // rows are appended after whatever is already written
    for (const F& e : row) write_elem(loop, e);
    ByteWriter bulk;
    bulk.u8(0x5A);
    write_elem_row<F>(bulk, row);
    ASSERT_EQ(bulk.data(), loop.data()) << "count=" << count;

    const std::span<const std::uint8_t> body =
        std::span(bulk.data()).subspan(1);
    const auto back = decode_elem_row<F>(body, count);
    ASSERT_TRUE(back.has_value()) << "count=" << count;
    EXPECT_EQ(*back, row);
  }
}

TYPED_TEST(FieldIoTest, RowDecodeRejectsWrongLength) {
  using F = TypeParam;
  Chacha rng(3);
  const std::size_t count = 9;
  std::vector<F> row(count);
  for (auto& e : row) e = random_element<F>(rng);
  ByteWriter w;
  write_elem_row<F>(w, row);
  const std::vector<std::uint8_t>& bytes = w.data();
  ASSERT_TRUE(decode_elem_row<F>(bytes, count).has_value());
  // Short by one byte, short by one element, long by one byte.
  EXPECT_FALSE(
      decode_elem_row<F>(std::span(bytes).first(bytes.size() - 1), count));
  EXPECT_FALSE(decode_elem_row<F>(
      std::span(bytes).first(bytes.size() - F::kBytes), count));
  std::vector<std::uint8_t> longer = bytes;
  longer.push_back(0);
  EXPECT_FALSE(decode_elem_row<F>(longer, count));
  // The right byte count for a different element count is rejected too.
  EXPECT_FALSE(decode_elem_row<F>(bytes, count - 1));
  EXPECT_FALSE(decode_elem_row<F>(bytes, count + 1));
  EXPECT_FALSE(decode_elem_row<F>({}, 1));
  EXPECT_TRUE(decode_elem_row<F>({}, 0).has_value());
}

TEST(FieldIoTest, TruncatedElementFails) {
  ByteWriter w;
  write_elem(w, GF2_64::from_uint(12345));
  auto bytes = w.data();
  bytes.resize(4);
  ByteReader r(bytes);
  (void)read_elem<GF2_64>(r);
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace dprbg
