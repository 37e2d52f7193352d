// Length-prefixed TCP framing for the real-socket transport.
//
// A connection between two beacon nodes carries a stream of frames:
//
//     u32 LE payload length (type byte included) | u8 frame type | payload
//
// on top of which four frame types implement the whole peer protocol:
//
//   kHello     dialer -> listener, first bytes after connect. Carries the
//              magic, the framing protocol version, the roster hash (both
//              ends must be configured with the same player list), and
//              the dialer's player id. The listener validates every field
//              and answers kHelloAck or closes the connection (a
//              handshake reject).
//   kHelloAck  listener -> dialer; same layout, listener's id.
//   kRound     one (stream, round, sender -> receiver) bundle: every
//              envelope the sender staged for this receiver during that
//              lockstep round, in send order, each encoded with the
//              envelope codec of net/msg.h. An empty bundle is still
//              sent — it is the round barrier marker.
//   kBye       the sender's program returned; barriers stop waiting for
//              it on every stream (the transport equivalent of
//              Cluster::drop()).
//
// Every decoder here is fed attacker-controlled bytes and must fail
// closed: wrong magic, truncation, trailing bytes, overlong varints, a
// sender id that does not match the handshaken peer — all yield nullopt
// and are scored as decode failures by the caller.

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/serial.h"
#include "common/varint.h"
#include "net/msg.h"

namespace dprbg {

// "DPRB" — first bytes of every handshake payload.
inline constexpr std::uint32_t kTcpMagic = 0x42525044u;
// Version of the framing layout itself (frame header + payload shapes);
// bumped on any change to them. Version 2 Hellos have no envelope
// wire-version byte, so a version-1 node (22-byte Hello) is refused.
inline constexpr std::uint8_t kTcpProtoVersion = 2;
// Frames larger than this are a protocol violation (DoS guard): the
// reader drops the connection without allocating the payload.
inline constexpr std::size_t kTcpMaxFrameBytes = 1u << 24;
// Fixed prefix: u32 length + u8 type.
inline constexpr std::size_t kTcpFramePrefixBytes = 5;

enum class FrameType : std::uint8_t {
  kHello = 1,
  kHelloAck = 2,
  kRound = 3,
  kBye = 4,
};

[[nodiscard]] inline const char* to_string(FrameType t) {
  switch (t) {
    case FrameType::kHello: return "hello";
    case FrameType::kHelloAck: return "hello_ack";
    case FrameType::kRound: return "round";
    case FrameType::kBye: return "bye";
  }
  return "?";
}

// Wraps a payload into one wire frame (prefix + type + payload).
[[nodiscard]] inline std::vector<std::uint8_t> frame_bytes(
    FrameType type, std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> out;
  out.reserve(kTcpFramePrefixBytes + payload.size());
  const auto len = static_cast<std::uint32_t>(1 + payload.size());
  out.push_back(static_cast<std::uint8_t>(len & 0xFF));
  out.push_back(static_cast<std::uint8_t>((len >> 8) & 0xFF));
  out.push_back(static_cast<std::uint8_t>((len >> 16) & 0xFF));
  out.push_back(static_cast<std::uint8_t>((len >> 24) & 0xFF));
  out.push_back(static_cast<std::uint8_t>(type));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

// ---------------------------------------------------------------------------
// Handshake payload (kHello / kHelloAck).

struct HelloFrame {
  std::uint8_t proto_version = kTcpProtoVersion;
  // Hash of the roster (host:port list) both ends were configured with;
  // a mismatch means the two processes disagree about who the n players
  // are, and the connection is rejected before any protocol byte flows.
  std::uint64_t roster_hash = 0;
  // The sender's player id in [0, n).
  std::uint32_t node_id = 0;
  // The sender's view of n, cross-checked against the receiver's roster.
  std::uint32_t n = 0;
};

[[nodiscard]] inline std::vector<std::uint8_t> encode_hello(
    const HelloFrame& h) {
  ByteWriter w;
  w.u32(kTcpMagic);
  w.u8(h.proto_version);
  w.u64(h.roster_hash);
  w.u32(h.node_id);
  w.u32(h.n);
  return std::move(w).take();
}

[[nodiscard]] inline std::optional<HelloFrame> decode_hello(
    std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  if (r.u32() != kTcpMagic) return std::nullopt;
  HelloFrame h;
  h.proto_version = r.u8();
  h.roster_hash = r.u64();
  h.node_id = r.u32();
  h.n = r.u32();
  if (!r.done()) return std::nullopt;
  return h;
}

// Why a dialer or listener refused a handshake — surfaced per-reason in
// the transport's counters and telemetry so a misconfigured fleet is
// diagnosable from either end.
enum class HandshakeReject : std::uint8_t {
  kMalformed = 0,      // frame did not decode as a Hello at all
  kProtoVersion = 1,   // framing layout version mismatch
  kRosterHash = 2,     // the two ends disagree about the player list
  kBadId = 3,          // id out of range, self, or wrong dial direction
};
inline constexpr std::size_t kHandshakeRejectReasons = 4;

[[nodiscard]] inline const char* to_string(HandshakeReject r) {
  switch (r) {
    case HandshakeReject::kMalformed: return "malformed";
    case HandshakeReject::kProtoVersion: return "proto_version";
    case HandshakeReject::kRosterHash: return "roster_hash";
    case HandshakeReject::kBadId: return "bad_id";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Round payload (kRound).
//
//     uvarint stream | uvarint round | uvarint count |
//     count * (envelope header | body bytes)
//
// The frame carries one sender's envelopes for ONE receiver and one
// (stream, round); the receiver learned the sender's id at handshake
// and rejects any envelope whose header claims a different one (an
// authenticated-channel stand-in until a signature layer lands). The
// envelope's own batch field is kept even though it duplicates the
// frame's stream id: the shared admit path (net/lockstep.h) classifies
// a mismatch as stale, exactly as the simulated demux would.

struct RoundFrame {
  std::uint32_t stream = 0;
  std::uint64_t round = 0;
  std::vector<Msg> msgs;  // in send order; every Msg targets the receiver
};

// Encodes one whole kRound wire frame — the frame_bytes prefix followed
// by the payload above — into one buffer of exactly the frame's size, so
// a bundle carrying a ~32 KB share row is copied once, not once more to
// prefix it. decode_round_frame takes the bytes after the prefix.
[[nodiscard]] inline std::vector<std::uint8_t> encode_round_frame(
    std::uint32_t stream, std::uint64_t round, std::span<const Msg> msgs) {
  const auto header = [](const Msg& m) {
    EnvelopeHeader h;
    h.from = static_cast<std::uint32_t>(m.from);
    h.tag = m.tag;
    h.batch = m.batch;
    h.body_len = static_cast<std::uint32_t>(m.body.size());
    return h;
  };
  std::size_t payload =
      varint_size(stream) + varint_size(round) + varint_size(msgs.size());
  for (const Msg& m : msgs) {
    payload += envelope_header_bytes(header(m)) + m.body.size();
  }
  ByteWriter w(kTcpFramePrefixBytes + payload);
  w.u32(static_cast<std::uint32_t>(1 + payload));
  w.u8(static_cast<std::uint8_t>(FrameType::kRound));
  w.uvarint(stream);
  w.uvarint(round);
  w.uvarint(msgs.size());
  for (const Msg& m : msgs) {
    encode_envelope_header(w, header(m));
    w.bytes(m.body);
  }
  return std::move(w).take();
}

// Decodes one round frame. `expected_from` is the handshaken peer id:
// an envelope claiming any other sender fails the whole frame (the
// caller scores it as a decode failure against the peer). `max_body`
// bounds a single envelope body so a hostile peer cannot force a huge
// allocation from a small frame.
[[nodiscard]] inline std::optional<RoundFrame> decode_round_frame(
    std::span<const std::uint8_t> payload, int expected_from,
    std::size_t max_body) {
  ByteReader r(payload);
  const std::uint64_t stream = r.uvarint();
  const std::uint64_t round = r.uvarint();
  const std::uint64_t count = r.uvarint();
  if (!r.ok() || stream > 0xFFFFFFFFull) return std::nullopt;
  // A frame cannot carry more envelopes than it has bytes left (each
  // envelope header is at least one byte): cheap cap before reserving.
  if (count > r.remaining()) return std::nullopt;
  RoundFrame f;
  f.stream = static_cast<std::uint32_t>(stream);
  f.round = round;
  f.msgs.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto h = decode_envelope_header(r);
    if (!h) return std::nullopt;
    if (static_cast<int>(h->from) != expected_from) return std::nullopt;
    if (h->body_len > max_body) return std::nullopt;
    Msg m;
    m.from = static_cast<int>(h->from);
    m.tag = h->tag;
    m.batch = h->batch;
    m.body = r.bytes(h->body_len, max_body);
    if (!r.ok()) return std::nullopt;
    f.msgs.push_back(std::move(m));
  }
  if (!r.done()) return std::nullopt;  // trailing bytes: reject
  return f;
}

}  // namespace dprbg
