// Tests for the TCP frame codec (net/framing.h): frame wrapping, the
// handshake payload, and the round-bundle payload — plus the fail-closed
// behavior every decoder must have
// on attacker-controlled bytes (wrong magic, truncation, trailing bytes,
// spoofed sender ids, oversized bodies).

#include "net/framing.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "net/msg.h"

namespace dprbg {
namespace {

constexpr std::uint32_t kTag = make_tag(ProtoId::kApp, 2, 7);

TEST(TcpFramingTest, FrameBytesLayout) {
  const std::vector<std::uint8_t> payload = {0xAA, 0xBB, 0xCC};
  const auto frame = frame_bytes(FrameType::kRound, payload);
  ASSERT_EQ(frame.size(), kTcpFramePrefixBytes + payload.size());
  // u32 LE length counts the type byte plus the payload.
  EXPECT_EQ(frame[0], 4u);
  EXPECT_EQ(frame[1], 0u);
  EXPECT_EQ(frame[2], 0u);
  EXPECT_EQ(frame[3], 0u);
  EXPECT_EQ(frame[4], static_cast<std::uint8_t>(FrameType::kRound));
  EXPECT_EQ(frame[5], 0xAA);
  EXPECT_EQ(frame[7], 0xCC);

  // An empty payload (a Bye, or a barrier-marker round bundle's frame
  // around an empty encoding) still carries the type byte.
  const auto bye = frame_bytes(FrameType::kBye, {});
  ASSERT_EQ(bye.size(), kTcpFramePrefixBytes);
  EXPECT_EQ(bye[0], 1u);
  EXPECT_EQ(bye[4], static_cast<std::uint8_t>(FrameType::kBye));
}

TEST(TcpFramingTest, HelloRoundTrips) {
  HelloFrame h;
  h.proto_version = kTcpProtoVersion;
  h.roster_hash = 0xDEADBEEFCAFEF00Dull;
  h.node_id = 3;
  h.n = 7;
  const auto bytes = encode_hello(h);
  const auto back = decode_hello(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->proto_version, h.proto_version);
  EXPECT_EQ(back->roster_hash, h.roster_hash);
  EXPECT_EQ(back->node_id, h.node_id);
  EXPECT_EQ(back->n, h.n);
}

TEST(TcpFramingTest, HelloRejectsMalformedBytes) {
  const auto good = encode_hello(HelloFrame{});

  // Wrong magic.
  auto bad_magic = good;
  bad_magic[0] ^= 0x01;
  EXPECT_FALSE(decode_hello(bad_magic).has_value());

  // Truncation at every prefix length.
  for (std::size_t len = 0; len < good.size(); ++len) {
    EXPECT_FALSE(
        decode_hello(std::span(good.data(), len)).has_value())
        << "prefix length " << len;
  }

  // Trailing bytes.
  auto trailing = good;
  trailing.push_back(0x00);
  EXPECT_FALSE(decode_hello(trailing).has_value());

  // Empty.
  EXPECT_FALSE(decode_hello({}).has_value());
}

std::vector<Msg> sample_msgs(int from) {
  std::vector<Msg> msgs;
  Msg a;
  a.from = from;
  a.tag = kTag;
  a.batch = 5;
  a.body = {1, 2, 3, 4};
  Msg b;
  b.from = from;
  b.tag = kTag + 1;
  b.batch = 5;
  b.body = {};  // empty body is legal
  msgs.push_back(a);
  msgs.push_back(b);
  return msgs;
}

// encode_round_frame returns a whole wire frame; the decoder takes the
// payload after the fixed prefix.
std::span<const std::uint8_t> payload_of(
    const std::vector<std::uint8_t>& frame) {
  return std::span(frame).subspan(kTcpFramePrefixBytes);
}

// The single-buffer round frame is byte-for-byte frame_bytes(kRound, .)
// around its payload: same length prefix, same type byte.
TEST(TcpFramingTest, RoundFrameEqualsFrameBytesOfItsPayload) {
  for (const auto& msgs : {sample_msgs(/*from=*/2), std::vector<Msg>{}}) {
    const auto frame =
        encode_round_frame(/*stream=*/300, /*round=*/1u << 20, msgs);
    ASSERT_GT(frame.size(), kTcpFramePrefixBytes);
    EXPECT_EQ(frame, frame_bytes(FrameType::kRound, payload_of(frame)));
  }
}

TEST(TcpFramingTest, RoundFrameRoundTrips) {
  const auto msgs = sample_msgs(/*from=*/2);
  const auto frame = encode_round_frame(/*stream=*/5, /*round=*/41, msgs);
  const auto back = decode_round_frame(payload_of(frame), /*expected_from=*/2,
                                       /*max_body=*/64);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->stream, 5u);
  EXPECT_EQ(back->round, 41u);
  ASSERT_EQ(back->msgs.size(), msgs.size());
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    EXPECT_EQ(back->msgs[i].from, msgs[i].from);
    EXPECT_EQ(back->msgs[i].tag, msgs[i].tag);
    EXPECT_EQ(back->msgs[i].batch, msgs[i].batch);
    EXPECT_EQ(back->msgs[i].body, msgs[i].body);
  }
}

TEST(TcpFramingTest, EmptyRoundFrameIsABarrierMarker) {
  const auto frame = encode_round_frame(/*stream=*/0, /*round=*/0, {});
  const auto back = decode_round_frame(payload_of(frame), 1, 64);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->stream, 0u);
  EXPECT_EQ(back->round, 0u);
  EXPECT_TRUE(back->msgs.empty());
}

TEST(TcpFramingTest, RoundFrameFailsClosed) {
  const auto msgs = sample_msgs(/*from=*/2);
  const auto frame = encode_round_frame(5, 41, msgs);
  const std::vector<std::uint8_t> good(payload_of(frame).begin(),
                                       payload_of(frame).end());
  ASSERT_TRUE(decode_round_frame(good, 2, 64).has_value());

  // A sender id other than the handshaken peer fails the whole frame —
  // this is the spoofing gate.
  EXPECT_FALSE(decode_round_frame(good, 3, 64).has_value());

  // Truncation at every prefix length.
  for (std::size_t len = 0; len < good.size(); ++len) {
    EXPECT_FALSE(
        decode_round_frame(std::span(good.data(), len), 2, 64).has_value())
        << "prefix length " << len;
  }

  // Trailing bytes.
  auto trailing = good;
  trailing.push_back(0x7F);
  EXPECT_FALSE(decode_round_frame(trailing, 2, 64).has_value());

  // Body larger than max_body: the 4-byte body fails a 3-byte cap.
  EXPECT_FALSE(decode_round_frame(good, 2, /*max_body=*/3).has_value());

  // A count claiming more envelopes than the frame has bytes.
  {
    ByteWriter w;
    w.uvarint(5);
    w.uvarint(41);
    w.uvarint(1000);  // only a handful of bytes follow
    w.u8(0);
    const auto bytes = std::move(w).take();
    EXPECT_FALSE(decode_round_frame(bytes, 2, 64).has_value());
  }
}

}  // namespace
}  // namespace dprbg
