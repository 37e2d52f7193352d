// Protocol messages and tagging.
//
// The model (Section 2): a synchronous network of n players communicating
// over private point-to-point channels. A message carries an opaque body
// plus a 32-bit tag that multiplexes concurrent protocol instances (e.g.
// the n parallel Bit-Gen invocations inside Coin-Gen, Fig. 5 step 3).

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/serial.h"
#include "common/varint.h"

namespace dprbg {

// Top-level protocol identifiers for tag composition.
enum class ProtoId : std::uint8_t {
  kTrustedDealer = 1,
  kCoinExpose = 2,
  kVss = 3,
  kBatchVss = 4,
  kBitGen = 5,
  kGradeCast = 6,
  kPhaseKing = 7,
  kCoinGen = 8,
  kRandomizedBa = 9,
  kBaselineCoin = 10,
  kReshare = 11,
  kApp = 15,
};

// tag = proto(8) | instance(12) | phase(8) | sub(4). `instance`
// distinguishes parallel invocations (e.g. dealer index, coin index);
// `phase` the round/step within a protocol; `sub` nested sub-usage.
constexpr std::uint32_t make_tag(ProtoId proto, unsigned instance,
                                 unsigned phase, unsigned sub = 0) {
  return (static_cast<std::uint32_t>(proto) << 24) |
         ((instance & 0xFFFu) << 12) | ((phase & 0xFFu) << 4) | (sub & 0xFu);
}

struct Msg {
  int from = -1;
  std::uint32_t tag = 0;
  // Round-stream (batch/instance) id stamped by the sending PartyIo
  // handle: 0 is the root lockstep stream, nonzero ids name per-batch
  // streams opened via PartyIo::instance() (pipelined Coin-Gen). On the
  // wire this rides in the envelope header alongside sender and tag (a
  // varint; see EnvelopeHeader below). Both transports cap it at
  // kMaxStreamId (net/lockstep.h) where stream handles are created
  // (DPRBG_CHECK), and the TCP reader refuses frames beyond the cap: it
  // bounds how many per-stream states a hostile peer can make a node
  // allocate, and it is the stride committee domains are laid out on
  // (net/committee.h). Batch ids grow
  // monotonically and are never reused, so a run that outgrows the cap
  // fails loudly. The demux delivers an envelope only to the round stream
  // it was sent on, so traffic from batch k can never surface in batch
  // k' — even delayed or duplicated by a link fault.
  std::uint32_t batch = 0;
  std::vector<std::uint8_t> body;
};

// One round's worth of delivered messages, sorted by (from, tag, send
// order) for determinism.
class Inbox {
 public:
  explicit Inbox(std::vector<Msg> msgs) : msgs_(std::move(msgs)) {}
  Inbox() = default;

  [[nodiscard]] const std::vector<Msg>& all() const { return msgs_; }

  // First message from `sender` with `tag`, if any. A Byzantine sender may
  // send several; taking the first is a fixed deterministic rule shared by
  // all honest players only when the sender sends the same multiplicity to
  // everyone — protocols treat duplicates as a faulty sender and the first
  // message as its "announced" value.
  [[nodiscard]] const Msg* from(int sender, std::uint32_t tag) const {
    for (const Msg& m : msgs_) {
      if (m.from == sender && m.tag == tag) return &m;
    }
    return nullptr;
  }

  // Moves the messages out (rvalue only: the inbox is spent afterwards).
  // Committee endpoints use this to remap sender ids onto committee-local
  // indices before re-wrapping the round's delivery.
  [[nodiscard]] std::vector<Msg> take_all() && { return std::move(msgs_); }

  // All messages carrying `tag`, at most one per sender (first wins).
  [[nodiscard]] std::vector<const Msg*> with_tag(std::uint32_t tag) const {
    std::vector<const Msg*> out;
    int last_from = -1;
    for (const Msg& m : msgs_) {
      if (m.tag != tag) continue;
      if (m.from == last_from) continue;  // duplicate from same sender
      last_from = m.from;
      out.push_back(&m);
    }
    return out;
  }

 private:
  std::vector<Msg> msgs_;
};

// ---------------------------------------------------------------------------
// Envelope wire framing.
//
// One version byte (0x10: version 1 in the high nibble, the low nibble
// reserved and zero), then canonical varints for sender, tag, batch and
// body length. The tag is byte-rotated before encoding (`wire_tag`) so
// the proto id — the only byte that is always nonzero — lands in the low
// bits and a bare tag like make_tag(kGradeCast,0,1) costs 2 varint bytes
// instead of 5. A typical header is 5-7 bytes. The version byte is what a
// future layout change would bump; today the decoder accepts only 0x10.

inline constexpr std::uint8_t kEnvelopeVersionByte = 0x10;

// Rotates the proto byte (bits 31..24 of a tag) into the low byte so the
// varint encoding of a small tag is short. Self-inverse-paired helpers;
// pure byte rotation, so every tag survives the round trip.
[[nodiscard]] constexpr std::uint32_t wire_tag(std::uint32_t tag) {
  return (tag << 8) | (tag >> 24);
}
[[nodiscard]] constexpr std::uint32_t unwire_tag(std::uint32_t w) {
  return (w >> 8) | (w << 24);
}

struct EnvelopeHeader {
  std::uint32_t from = 0;
  std::uint32_t tag = 0;
  std::uint32_t batch = 0;
  std::uint32_t body_len = 0;
};

inline void encode_envelope_header(ByteWriter& w, const EnvelopeHeader& h) {
  w.u8(kEnvelopeVersionByte);
  w.uvarint(h.from);
  w.uvarint(wire_tag(h.tag));
  w.uvarint(h.batch);
  w.uvarint(h.body_len);
}

// Decodes one envelope header; nullopt on malformed input (truncation, a
// first byte other than kEnvelopeVersionByte, non-canonical varints, or a
// field overflowing its 32-bit range). The reader is left positioned
// after the header on success so the body can be read next.
[[nodiscard]] inline std::optional<EnvelopeHeader> decode_envelope_header(
    ByteReader& r) {
  const std::uint8_t b0 = r.u8();
  if (!r.ok() || b0 != kEnvelopeVersionByte) return std::nullopt;
  const std::uint64_t from = r.uvarint();
  const std::uint64_t tagw = r.uvarint();
  const std::uint64_t batch = r.uvarint();
  const std::uint64_t len = r.uvarint();
  if (!r.ok() || from > 0xFFFFFFFFull || tagw > 0xFFFFFFFFull ||
      batch > 0xFFFFFFFFull || len > 0xFFFFFFFFull) {
    return std::nullopt;
  }
  EnvelopeHeader h;
  h.from = static_cast<std::uint32_t>(from);
  h.tag = unwire_tag(static_cast<std::uint32_t>(tagw));
  h.batch = static_cast<std::uint32_t>(batch);
  h.body_len = static_cast<std::uint32_t>(len);
  return h;
}

// Exact on-wire size of the header — what the per-envelope byte
// accounting of both transports charges (net/lockstep.h).
[[nodiscard]] inline std::size_t envelope_header_bytes(
    const EnvelopeHeader& h) {
  return 1 + varint_size(h.from) + varint_size(wire_tag(h.tag)) +
         varint_size(h.batch) + varint_size(h.body_len);
}

}  // namespace dprbg
