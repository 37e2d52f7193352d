// Envelope wire framing (net/msg.h) and the Grade-Cast echo layout
// (gradecast/gradecast.h): both round-trip canonically, the golden bytes
// are pinned, and every malformed or non-canonical input is rejected.

#include <cstdint>
#include <optional>
#include <vector>

#include "common/serial.h"
#include "gradecast/gradecast.h"
#include "gtest/gtest.h"
#include "net/msg.h"
#include "rng/chacha.h"

namespace dprbg {
namespace {

EnvelopeHeader sample_header() {
  EnvelopeHeader h;
  h.from = 3;
  h.tag = make_tag(ProtoId::kGradeCast, 2, 1);
  h.batch = 7;
  h.body_len = 96;
  return h;
}

TEST(WireFormatTest, V1HeaderGoldenBytesAndShorter) {
  ByteWriter w;
  encode_envelope_header(w, sample_header());
  // tag 0x06002010 rotates to 0x00201006 (proto byte low) and varints to
  // 4 bytes; from/batch/body_len are single-byte varints.
  const std::vector<std::uint8_t> expect{
      0x10,                    // version 1, low nibble reserved zero
      0x03,                    // from = 3
      0x86, 0xA0, 0x80, 0x01,  // wire_tag(tag) = 0x00201006
      0x07,                    // batch = 7
      0x60,                    // body_len = 96
  };
  EXPECT_EQ(w.data(), expect);
  // Shorter than the four header fields would be as raw u32s.
  EXPECT_LT(w.size(), 4 * sizeof(std::uint32_t));
  EXPECT_EQ(envelope_header_bytes(sample_header()), w.size());
}

TEST(WireFormatTest, HeadersRoundTrip) {
  Chacha rng(0xC0FFEE, 1);
  for (int i = 0; i < 2000; ++i) {
    EnvelopeHeader h;
    h.from = static_cast<std::uint32_t>(rng.next_u64() % 1000);
    h.tag = static_cast<std::uint32_t>(rng.next_u64());
    h.batch = static_cast<std::uint32_t>(rng.next_u64() % 0x10000);
    h.body_len = static_cast<std::uint32_t>(rng.next_u64());
    ByteWriter w;
    encode_envelope_header(w, h);
    ASSERT_EQ(w.size(), envelope_header_bytes(h));
    ByteReader r(w.data());
    const auto back = decode_envelope_header(r);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->from, h.from);
    EXPECT_EQ(back->tag, h.tag);
    EXPECT_EQ(back->batch, h.batch);
    EXPECT_EQ(back->body_len, h.body_len);
    EXPECT_TRUE(r.done());
  }
}

TEST(WireFormatTest, V1RejectsMalformedHeaders) {
  ByteWriter good;
  encode_envelope_header(good, sample_header());
  // Truncation: every strict prefix fails.
  for (std::size_t cut = 0; cut < good.size(); ++cut) {
    std::vector<std::uint8_t> prefix(good.data().begin(),
                                     good.data().begin() + cut);
    ByteReader r(prefix);
    EXPECT_FALSE(decode_envelope_header(r).has_value()) << "cut " << cut;
  }
  // Nonzero reserved low nibble.
  std::vector<std::uint8_t> bad_flags = good.data();
  bad_flags[0] = 0x13;
  {
    ByteReader r(bad_flags);
    EXPECT_FALSE(decode_envelope_header(r).has_value());
  }
  // Wrong version nibble.
  std::vector<std::uint8_t> bad_version = good.data();
  bad_version[0] = 0x20;
  {
    ByteReader r(bad_version);
    EXPECT_FALSE(decode_envelope_header(r).has_value());
  }
  // Overlong varint in the sender field.
  std::vector<std::uint8_t> overlong{0x10, 0x83, 0x00, 0x01, 0x02, 0x03};
  {
    ByteReader r(overlong);
    EXPECT_FALSE(decode_envelope_header(r).has_value());
  }
}

TEST(WireFormatTest, TagRotationIsLossless) {
  Chacha rng(0x7A6, 2);
  for (int i = 0; i < 1000; ++i) {
    const auto tag = static_cast<std::uint32_t>(rng.next_u64());
    EXPECT_EQ(unwire_tag(wire_tag(tag)), tag);
  }
  // The rotation puts the proto byte low: a bare proto tag is tiny.
  const std::uint32_t bare = make_tag(ProtoId::kGradeCast, 0, 0);
  EXPECT_EQ(varint_size(wire_tag(bare)), 1u);
}

// A chunk as an honest echoer at position `i` of a dimension-`c` code
// would send it for `value`.
gradecast_detail::EchoChunk chunk_of(const std::vector<std::uint8_t>& value,
                                     int n, unsigned c, int i) {
  const ReedSolomon rs(n, c);
  return {value.size(), rs.symbol(rs.pack(value), i)};
}

TEST(WireFormatTest, EchoCodecV1RoundTripsAndShrinks) {
  using gradecast_detail::MaybeChunk;
  const int n = 7;
  const unsigned c = 4;  // n - 3t at t = 1
  std::vector<MaybeChunk> per_sender(n);
  per_sender[0] = chunk_of({1, 2}, n, c, 5);                    // 1 stripe
  per_sender[2] = chunk_of(std::vector<std::uint8_t>(8, 0xAB), n, c, 5);
  per_sender[3] = chunk_of({}, n, c, 5);                        // empty
  per_sender[6] = chunk_of(std::vector<std::uint8_t>(200, 0x42), n, c, 5);

  const auto bytes = gradecast_detail::encode_echoes(per_sender);
  // 1 key byte per sender when absent or small, 2 for the 200-byte value;
  // then one 8-byte symbol per stripe: 200 bytes are 25 elements, 7
  // stripes of 4 — a quarter of the value plus padding.
  EXPECT_EQ(bytes.size(), 6 * 1 + 2 + 8 + 8 + 0 + 7 * 8);

  const auto decoded =
      gradecast_detail::decode_echoes(bytes, n, c, 1u << 10);
  ASSERT_TRUE(decoded.has_value());
  for (int s = 0; s < n; ++s) {
    EXPECT_EQ((*decoded)[s], per_sender[s]) << "sender " << s;
  }
  EXPECT_EQ(gradecast_detail::encode_echoes(*decoded), bytes);
}

TEST(WireFormatTest, EchoV1RejectsOversizeAndTrailing) {
  using gradecast_detail::MaybeChunk;
  std::vector<MaybeChunk> per_sender(2);
  per_sender[0] = chunk_of(std::vector<std::uint8_t>(16, 1), 4, 1, 2);
  auto bytes = gradecast_detail::encode_echoes(per_sender);
  ASSERT_TRUE(gradecast_detail::decode_echoes(bytes, 2, 1, 1u << 10));
  // Cap below the value size: rejected before allocation.
  EXPECT_FALSE(gradecast_detail::decode_echoes(bytes, 2, 1, 8).has_value());
  // A claimed length whose stripes the body does not hold: at c = 1 a
  // 16-byte value is 2 symbols; read as c = 2 it is 1, which leaves a
  // trailing symbol.
  EXPECT_FALSE(
      gradecast_detail::decode_echoes(bytes, 2, 2, 1u << 10).has_value());
  // Trailing garbage: rejected by the done() check.
  bytes.push_back(0x00);
  EXPECT_FALSE(
      gradecast_detail::decode_echoes(bytes, 2, 1, 1u << 10).has_value());
  // Key varint overlong: rejected by canonical decoding.
  const std::vector<std::uint8_t> overlong{0x80, 0x00, 0x00};
  EXPECT_FALSE(
      gradecast_detail::decode_echoes(overlong, 2, 1, 1u << 10).has_value());
}

}  // namespace
}  // namespace dprbg
