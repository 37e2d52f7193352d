// Grade-Cast (Feldman-Micali [14]), "the three level-outcome primitive":
// a sender distributes a value; every player outputs a value plus a
// confidence in {0, 1, 2}.
//
// Guarantees for n >= 3t + 1:
//   * honest sender: every honest player outputs the sender's value with
//     confidence 2;
//   * if any honest player outputs (v, 2), every honest player outputs v
//     with confidence >= 1 ("a confidence of 2 indicates that all other
//     honest players have seen the value");
//   * confidences of honest players differ by at most one level.
// Moreover every honest player with confidence >= 1 outputs the same
// value. Values are opaque byte strings; equality is byte equality.
//
// Three rounds, with the echoes dispersed (Das, Xiang and Ren,
// "Asynchronous Data Dissemination", CCS 2021): each value is encoded as
// a Reed–Solomon codeword of dimension c = n - 3t (poly/reed_solomon.h),
// and player i's chunk is its symbol — |v|/c bytes instead of |v|.
//   1. The sender sends v to everyone.
//   2. Player i sends its chunk of the value it received, if any. It
//      supports the codeword that agrees with >= n - t of the echo chunks
//      it receives, if one exists.
//   3. Player i sends its chunk of the codeword it supports, if any. A
//      receiver decodes the codeword agreeing with >= n - 2t of these
//      chunks: confidence 2 at >= n - t agreeing, 1 at >= n - 2t.
// The output value is always that decoded codeword, never a player's own
// round-1 value: an equivocating sender can make a second value agree
// with the first one's codeword on c - 1 chunks. Proofs (DESIGN.md §17):
// two codewords each agreeing with >= n - 2t honest chunks share
// >= n - 3t = c honest positions and are equal, so honest players support
// at most one codeword, and any codeword reaching the grade-1 threshold
// in round 3 is that one; decoding tolerates the <= t wrong chunks plus
// the erasures of silent players. With n = 3t + 1, c = 1 and every chunk
// is the whole value: the classic full-echo Grade-Cast.
//
// One sender per call, one chunk per echo message: round 1 is n messages
// and each echo round at most n^2 messages of ~|v|/c bytes. Coin-Gen
// grade-casts only its elected leader's package (DESIGN.md §18), so the
// per-iteration cost is O(n^2 |v| / c), not Theorem 2's n parallel
// grade-casts.

#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/serial.h"
#include "common/trace.h"
#include "net/endpoint.h"
#include "net/msg.h"
#include "poly/reed_solomon.h"

namespace dprbg {

struct GradeCastResult {
  std::vector<std::uint8_t> value;  // empty when confidence == 0
  int confidence = 0;               // 0, 1, or 2
};

// The code dimension Grade-Cast uses for (n, t): n - 3t, the largest for
// which at most one codeword can gather honest support (1 when n <= 3t,
// outside the model, which degenerates to full echoes).
inline unsigned gradecast_dimension(int n, int t) {
  return n - 3 * t >= 1 ? static_cast<unsigned>(n - 3 * t) : 1u;
}

namespace gradecast_detail {

// One echoed chunk: the claimed byte length of the value and this
// player's symbol of each of its rs_stripes(length, c) stripes.
struct EchoChunk {
  std::uint64_t length = 0;
  std::vector<GF2_64> symbols;

  bool operator==(const EchoChunk&) const = default;
};

using MaybeChunk = std::optional<EchoChunk>;

// One echo message: the length as a canonical varint, then the chunk's
// symbols, 8 bytes each. A player with nothing to echo sends nothing.
// The symbol count follows from the length, and every 8-byte pattern is
// a GF(2^64) element, so the decoder accepts only this canonical form
// and every accepted message re-encodes to the same bytes.
inline std::vector<std::uint8_t> encode_echo(const EchoChunk& chunk) {
  ByteWriter w;
  w.uvarint(chunk.length);
  for (const GF2_64& e : chunk.symbols) w.u64(e.to_uint());
  return std::move(w).take();
}

// The length is checked against max_value_size and the symbol count
// against the bytes left before anything is allocated.
inline std::optional<EchoChunk> decode_echo(
    const std::vector<std::uint8_t>& bytes, unsigned c,
    std::size_t max_value_size) {
  ByteReader r(bytes);
  const std::uint64_t length = r.uvarint();
  if (!r.ok() || length > max_value_size) return std::nullopt;
  const std::size_t stripes = rs_stripes(length, c);
  if (stripes > r.remaining() / 8 || r.remaining() != stripes * 8) {
    return std::nullopt;
  }
  EchoChunk chunk{length, std::vector<GF2_64>(stripes)};
  for (GF2_64& e : chunk.symbols) e = GF2_64::from_uint(r.u64());
  return chunk;
}

// A codeword found among the chunks.
struct Found {
  std::vector<std::uint8_t> value;  // the value it encodes
  std::vector<GF2_64> data;         // as ReedSolomon::pack lays it out
  std::size_t agree = 0;            // chunks on the codeword
};

// The codeword agreeing with >= min_agree of `chunks` (indexed by the
// player that sent them), tolerating errors(p) wrong chunks among the p
// that claim its length, whose padding is zero. Candidate lengths, tried
// shortest first, are those claimed by >= min_agree players; Grade-Cast's
// thresholds leave at most one that can succeed.
template <typename Errors>
std::optional<Found> find_codeword(const ReedSolomon& rs,
                                   const std::vector<MaybeChunk>& chunks,
                                   std::size_t min_agree, Errors errors) {
  std::vector<int> order;
  for (int i = 0; i < static_cast<int>(chunks.size()); ++i) {
    if (chunks[i]) order.push_back(i);
  }
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return chunks[a]->length < chunks[b]->length;
  });
  std::vector<int> ids;
  std::vector<std::span<const GF2_64>> rows;
  for (auto group = order.begin(); group != order.end();) {
    const std::uint64_t length = chunks[*group]->length;
    const auto next = std::find_if(group, order.end(), [&](int i) {
      return chunks[i]->length != length;
    });
    const std::size_t p = static_cast<std::size_t>(next - group);
    if (p >= min_agree) {
      ids.assign(group, next);
      rows.clear();
      for (int i : ids) rows.emplace_back(chunks[i]->symbols);
      auto decoded = rs.decode(ids, rows, errors(p));
      if (decoded && decoded->agree >= min_agree) {
        if (auto value = rs.unpack(decoded->data, length)) {
          return Found{std::move(*value), std::move(decoded->data),
                       decoded->agree};
        }
      }
    }
    group = next;
  }
  return std::nullopt;
}

// Receives one echo round: chunks[i] is player i's chunk. A malformed
// message is dropped and scored.
template <NetEndpoint Io>
std::vector<MaybeChunk> receive_chunks(Io& io, const Inbox& in,
                                       std::uint32_t tag, unsigned c,
                                       std::size_t max_value_size) {
  const int n = io.n();
  std::vector<MaybeChunk> chunks(n);
  for (const Msg* m : in.with_tag(tag)) {
    auto decoded = decode_echo(m->body, c, max_value_size);
    if (!decoded) {
      io.note_decode_failure(m->from);
      continue;
    }
    if (m->from < 0 || m->from >= n) continue;
    chunks[m->from] = std::move(decoded);
  }
  return chunks;
}

}  // namespace gradecast_detail

// Grade-casts `value` from `sender` in 3 rounds; every player calls with
// the same sender and instance, and only the sender's `value` is read.
// A sender outside 0..n-1 sends nothing, so every player outputs
// confidence 0. `instance` disambiguates sequential invocations.
//
// Byte-bounded: a Byzantine value larger than `max_value_size` is treated
// as absent, so a faulty sender cannot blow up honest memory.
template <NetEndpoint Io>
GradeCastResult grade_cast(Io& io, int sender,
                           const std::vector<std::uint8_t>& value,
                           unsigned instance = 0,
                           std::size_t max_value_size = 1u << 20) {
  using gradecast_detail::EchoChunk;
  using gradecast_detail::encode_echo;
  using gradecast_detail::find_codeword;
  using gradecast_detail::receive_chunks;
  const int n = io.n();
  const int t = io.t();
  const int me = io.id();
  const unsigned c = gradecast_dimension(n, t);
  const ReedSolomon& rs = ReedSolomon::cached(n, c);
  const std::uint32_t send_tag =
      make_tag(ProtoId::kGradeCast, instance, 0);
  const std::uint32_t echo_tag =
      make_tag(ProtoId::kGradeCast, instance, 1);
  const std::uint32_t support_tag =
      make_tag(ProtoId::kGradeCast, instance, 2);

  // Round 1: the sender distributes its value.
  TraceSpan send_span(io, "gradecast", "send");
  if (me == sender) io.send_all(send_tag, value);
  const Inbox& in1 = io.sync();
  send_span.close();

  // Round 2: echo our chunk of what we received.
  TraceSpan echo_span(io, "gradecast", "echo");
  const Msg* m = in1.from(sender, send_tag);
  if (m != nullptr && m->body.size() <= max_value_size) {
    const EchoChunk mine{m->body.size(), rs.symbol(rs.pack(m->body), me)};
    io.send_all(echo_tag, encode_echo(mine));
  }
  const Inbox& in2 = io.sync();
  echo_span.close();

  // Round 3: support the codeword that >= n - t echo chunks agree with
  // (the p chunks claiming its length hold <= p - (n - t) wrong ones),
  // and send our chunk of it.
  TraceSpan support_span(io, "gradecast", "support");
  const std::size_t support_min = static_cast<std::size_t>(n - t);
  const auto supported = find_codeword(
      rs, receive_chunks(io, in2, echo_tag, c, max_value_size), support_min,
      [&](std::size_t p) { return static_cast<unsigned>(p - support_min); });
  if (supported) {
    const EchoChunk mine{supported->value.size(),
                         rs.symbol(supported->data, me)};
    io.send_all(support_tag, encode_echo(mine));
  }
  const Inbox& in3 = io.sync();
  support_span.close();

  // Grade: decode the codeword >= n - 2t support chunks agree with,
  // correcting up to t wrong chunks.
  const std::size_t grade1 =
      static_cast<std::size_t>(n - 2 * t >= 1 ? n - 2 * t : 1);
  auto found = find_codeword(
      rs, receive_chunks(io, in3, support_tag, c, max_value_size), grade1,
      [&](std::size_t p) {
        return static_cast<unsigned>(std::min<std::size_t>(t, (p - c) / 2));
      });
  if (!found) return {};
  return {std::move(found->value), found->agree >= support_min ? 2 : 1};
}

}  // namespace dprbg
