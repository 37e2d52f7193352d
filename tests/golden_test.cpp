// Golden tests: lock down deterministic outputs so refactors cannot
// silently change the wire format, field constants, or replayable
// randomness. If one of these fails, either a bug was introduced or the
// format deliberately changed — in the latter case update the constants
// AND bump a protocol version in the release notes.

#include <gtest/gtest.h>

#include <vector>

#include "common/serial.h"
#include "gf/field_io.h"
#include "gf/gf2.h"
#include "net/msg.h"
#include "rng/chacha.h"
#include "sharing/shamir.h"

namespace dprbg {
namespace {

TEST(GoldenTest, TagLayout) {
  // tag = proto(8) | instance(12) | phase(8) | sub(4).
  EXPECT_EQ(make_tag(ProtoId::kVss, 0, 0, 0), 0x03000000u);
  EXPECT_EQ(make_tag(ProtoId::kBitGen, 1, 2, 3), 0x05001023u);
  EXPECT_EQ(make_tag(ProtoId::kCoinExpose, 4095, 255, 15), 0x02FFFFFFu);
  // Field overflow wraps into the mask, never into neighbours.
  EXPECT_EQ(make_tag(ProtoId::kVss, 4096, 0, 0),
            make_tag(ProtoId::kVss, 0, 0, 0));
}

TEST(GoldenTest, EnvelopeHeaderLayouts) {
  // The envelope framing is golden: version byte 0x10, then from /
  // rotated tag / batch / body_len as canonical varints.
  EnvelopeHeader h;
  h.from = 5;
  h.tag = make_tag(ProtoId::kVss, 1, 2, 3);  // 0x03001023
  h.batch = 300;
  h.body_len = 130;

  ByteWriter w;
  encode_envelope_header(w, h);
  const std::vector<std::uint8_t> expect = {
      0x10,              // version 1, low nibble reserved zero
      0x05,              // from
      0x83, 0xC6, 0x40,  // wire_tag(tag) = 0x00102303, 3-byte varint
      0xAC, 0x02,        // batch = 300
      0x82, 0x01,        // body_len = 130
  };
  EXPECT_EQ(w.data(), expect);
  EXPECT_EQ(envelope_header_bytes(h), expect.size());

  ByteReader r(w.data());
  const auto back = decode_envelope_header(r);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->from, h.from);
  EXPECT_EQ(back->tag, h.tag);
  EXPECT_EQ(back->batch, h.batch);
  EXPECT_EQ(back->body_len, h.body_len);
}

TEST(GoldenTest, FieldElementWireFormat) {
  // Little-endian, exactly kBytes bytes.
  ByteWriter w;
  write_elem(w, GF2_64::from_uint(0x0102030405060708ull));
  const std::vector<std::uint8_t> expected = {0x08, 0x07, 0x06, 0x05,
                                              0x04, 0x03, 0x02, 0x01};
  EXPECT_EQ(w.data(), expected);

  ByteWriter w16;
  write_elem(w16, GF2_16::from_uint(0xABCD));
  EXPECT_EQ(w16.data(), (std::vector<std::uint8_t>{0xCD, 0xAB}));
}

TEST(GoldenTest, SerializedVectorLayout) {
  ByteWriter w;
  w.u64_vec(std::vector<std::uint64_t>{0x11, 0x22});
  const std::vector<std::uint8_t> expected = {
      2,    0, 0, 0,                    // u32 length
      0x11, 0, 0, 0, 0, 0, 0, 0,        // first element LE
      0x22, 0, 0, 0, 0, 0, 0, 0,        // second element LE
  };
  EXPECT_EQ(w.data(), expected);
}

TEST(GoldenTest, ChachaKnownStream) {
  // Replayability contract: these values must never change for a given
  // (seed, stream) or every recorded experiment changes under users'
  // feet.
  Chacha a(0, 0);
  const std::uint64_t a0 = a.next_u64();
  const std::uint64_t a1 = a.next_u64();
  Chacha b(0, 0);
  EXPECT_EQ(b.next_u64(), a0);
  EXPECT_EQ(b.next_u64(), a1);
  // And distinct streams diverge immediately.
  Chacha c(0, 1);
  EXPECT_NE(c.next_u64(), a0);
}

TEST(GoldenTest, Gf2ModuliAreTheDocumentedOnes) {
  // The field constants are part of the wire contract (two builds with
  // different moduli cannot interoperate).
  EXPECT_EQ(gf2_detail::modulus<8>(), 0x1Bu);
  EXPECT_EQ(gf2_detail::modulus<16>(), 0x2Bu);
  EXPECT_EQ(gf2_detail::modulus<32>(), 0x8Du);
  EXPECT_EQ(gf2_detail::modulus<64>(), 0x1Bu);
}

TEST(GoldenTest, EvalPointsAreOneBased) {
  EXPECT_EQ(eval_point<GF2_64>(0).to_uint(), 1u);
  EXPECT_EQ(eval_point<GF2_64>(6).to_uint(), 7u);
}

TEST(GoldenTest, AesFieldVector) {
  // Cross-implementation anchor: AES's GF(2^8) test vector.
  EXPECT_EQ((GF2_8::from_uint(0x57) * GF2_8::from_uint(0x83)).to_uint(),
            0xC1u);
}

}  // namespace
}  // namespace dprbg
