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
//   2. Player i sends its chunk of the value it received. It supports the
//      codeword that agrees with >= n - t of the echo chunks it receives,
//      if one exists.
//   3. Player i sends its chunk of the codeword it supports. A receiver
//      decodes the codeword agreeing with >= n - 2t of these chunks:
//      confidence 2 at >= n - t agreeing, 1 at >= n - 2t.
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
// Message batching: with n grade-casts running in parallel (Coin-Gen
// step 7 has every player as a sender), each player sends ONE message
// per recipient per echo round carrying its chunks for all n senders —
// n^2 messages of size ~n|v|/c per round network-wide. With c = n - 3t
// that is the size Theorem 2 charges ("n^2 messages each of size ntk").

#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
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

// One batched echo message: per sender, one canonical varint key
// (0 = absent, else length + 1) followed by the chunk's symbols, 8 bytes
// each. The symbol count follows from the length, and every 8-byte
// pattern is a GF(2^64) element, so the decoder accepts only this
// canonical form and every accepted batch re-encodes to the same bytes.
inline std::vector<std::uint8_t> encode_echoes(
    const std::vector<MaybeChunk>& per_sender) {
  ByteWriter w;
  for (const auto& chunk : per_sender) {
    if (!chunk) {
      w.uvarint(0);
      continue;
    }
    w.uvarint(chunk->length + 1);
    for (const GF2_64& e : chunk->symbols) w.u64(e.to_uint());
  }
  return std::move(w).take();
}

inline std::optional<std::vector<MaybeChunk>> decode_echoes(
    const std::vector<std::uint8_t>& bytes, int n, unsigned c,
    std::size_t max_value_size) {
  // Every sender entry occupies at least 1 byte (the key varint); reject
  // batches that cannot possibly hold n entries before touching them,
  // so length validation always precedes allocation.
  if (bytes.size() < static_cast<std::size_t>(n)) return std::nullopt;
  ByteReader r(bytes);
  std::vector<MaybeChunk> out(n);
  for (int s = 0; s < n; ++s) {
    const std::uint64_t key = r.uvarint();
    if (!r.ok()) return std::nullopt;
    if (key == 0) continue;  // absent
    const std::uint64_t length = key - 1;
    if (length > max_value_size) return std::nullopt;
    const std::size_t stripes = rs_stripes(length, c);
    if (stripes > r.remaining() / 8) return std::nullopt;
    EchoChunk chunk{length, std::vector<GF2_64>(stripes)};
    for (GF2_64& e : chunk.symbols) e = GF2_64::from_uint(r.u64());
    out[s] = std::move(chunk);
  }
  if (!r.ok() || !r.done()) return std::nullopt;
  return out;
}

// A codeword found among one sender's chunks.
struct Found {
  std::vector<std::uint8_t> value;  // the value it encodes
  std::vector<GF2_64> data;         // as ReedSolomon::pack lays it out
  std::size_t agree = 0;            // chunks on the codeword
};

// The codeword agreeing with >= min_agree of `chunks` (indexed by the
// player that sent them), tolerating errors(p) wrong chunks among the p
// that claim its length, whose padding is zero. Candidate lengths are
// those claimed by >= min_agree players; Grade-Cast's thresholds leave at
// most one that can succeed.
template <typename Errors>
std::optional<Found> find_codeword(const ReedSolomon& rs,
                                   const std::vector<MaybeChunk>& chunks,
                                   std::size_t min_agree, Errors errors) {
  std::map<std::uint64_t, std::vector<int>> by_length;
  for (int i = 0; i < static_cast<int>(chunks.size()); ++i) {
    if (chunks[i]) by_length[chunks[i]->length].push_back(i);
  }
  for (const auto& [length, ids] : by_length) {
    if (ids.size() < min_agree) continue;
    std::vector<std::span<const GF2_64>> rows;
    rows.reserve(ids.size());
    for (int i : ids) rows.emplace_back(chunks[i]->symbols);
    auto decoded = rs.decode(ids, rows, errors(ids.size()));
    if (!decoded || decoded->agree < min_agree) continue;
    auto value = rs.unpack(decoded->data, length);
    if (!value) continue;
    return Found{std::move(*value), std::move(decoded->data),
                 decoded->agree};
  }
  return std::nullopt;
}

// Receives one echo round: chunks[s][i] is player i's chunk for sender s.
// A malformed batch drops its sender from every instance and is scored.
template <NetEndpoint Io>
std::vector<std::vector<MaybeChunk>> receive_chunks(
    Io& io, const Inbox& in, std::uint32_t tag, unsigned c,
    std::size_t max_value_size) {
  const int n = io.n();
  std::vector<std::vector<MaybeChunk>> chunks(
      n, std::vector<MaybeChunk>(n));
  for (const Msg* m : in.with_tag(tag)) {
    auto decoded = decode_echoes(m->body, n, c, max_value_size);
    if (!decoded) {
      io.note_decode_failure(m->from);
      continue;
    }
    if (m->from < 0 || m->from >= n) continue;
    for (int s = 0; s < n; ++s) {
      chunks[s][m->from] = std::move((*decoded)[s]);
    }
  }
  return chunks;
}

}  // namespace gradecast_detail

// Runs n parallel grade-casts, one per sender, in 3 shared rounds.
// `my_value` is what this player grade-casts as a sender. Returns the
// result for each sender (index = sender id). `instance` disambiguates
// sequential invocations.
//
// Byte-bounded: a Byzantine value larger than `max_value_size` is treated
// as absent, so a faulty sender cannot blow up honest memory.
template <NetEndpoint Io>
std::vector<GradeCastResult> grade_cast_all(
    Io& io, const std::vector<std::uint8_t>& my_value,
    unsigned instance = 0, std::size_t max_value_size = 1u << 20) {
  using gradecast_detail::EchoChunk;
  using gradecast_detail::MaybeChunk;
  const int n = io.n();
  const int t = io.t();
  const int me = io.id();
  const unsigned c = gradecast_dimension(n, t);
  const ReedSolomon rs(n, c);
  const std::uint32_t send_tag =
      make_tag(ProtoId::kGradeCast, instance, 0);
  const std::uint32_t echo_tag =
      make_tag(ProtoId::kGradeCast, instance, 1);
  const std::uint32_t support_tag =
      make_tag(ProtoId::kGradeCast, instance, 2);

  // Round 1: every sender distributes its value.
  TraceSpan send_span(io, "gradecast", "send");
  io.send_all(send_tag, my_value);
  const Inbox& in1 = io.sync();
  send_span.close();

  // Round 2: echo our chunk of what we received from each sender.
  TraceSpan echo_span(io, "gradecast", "echo");
  std::vector<MaybeChunk> echoes(n);
  for (int s = 0; s < n; ++s) {
    const Msg* m = in1.from(s, send_tag);
    if (m == nullptr || m->body.size() > max_value_size) continue;
    echoes[s] = EchoChunk{m->body.size(), rs.symbol(rs.pack(m->body), me)};
  }
  io.send_all(echo_tag, gradecast_detail::encode_echoes(echoes));
  const Inbox& in2 = io.sync();
  echo_span.close();

  // Round 3: support the codeword that >= n - t echo chunks agree with
  // (the p chunks claiming its length hold <= p - (n - t) wrong ones),
  // and send our chunk of it.
  TraceSpan support_span(io, "gradecast", "support");
  const auto echoed = gradecast_detail::receive_chunks(io, in2, echo_tag, c,
                                                       max_value_size);
  const std::size_t support_min = static_cast<std::size_t>(n - t);
  std::vector<MaybeChunk> supports(n);
  for (int s = 0; s < n; ++s) {
    const auto found = gradecast_detail::find_codeword(
        rs, echoed[s], support_min, [&](std::size_t p) {
          return static_cast<unsigned>(p - support_min);
        });
    if (found) {
      supports[s] = EchoChunk{found->value.size(), rs.symbol(found->data, me)};
    }
  }
  io.send_all(support_tag, gradecast_detail::encode_echoes(supports));
  const Inbox& in3 = io.sync();
  support_span.close();
  const auto supported = gradecast_detail::receive_chunks(
      io, in3, support_tag, c, max_value_size);

  // Grades: decode the codeword >= n - 2t support chunks agree with,
  // correcting up to t wrong chunks.
  const std::size_t grade1 =
      static_cast<std::size_t>(n - 2 * t >= 1 ? n - 2 * t : 1);
  std::vector<GradeCastResult> out(n);
  for (int s = 0; s < n; ++s) {
    auto found = gradecast_detail::find_codeword(
        rs, supported[s], grade1, [&](std::size_t p) {
          return static_cast<unsigned>(
              std::min<std::size_t>(t, (p - c) / 2));
        });
    if (!found) continue;
    out[s] = {std::move(found->value), found->agree >= support_min ? 2 : 1};
  }
  return out;
}

// Single-sender convenience wrapper (used by tests): only `sender`
// contributes a value; everyone participates in the echo rounds.
template <NetEndpoint Io>
GradeCastResult grade_cast(Io& io, int sender,
                           const std::vector<std::uint8_t>& value,
                           unsigned instance = 0) {
  std::vector<std::uint8_t> mine;
  if (io.id() == sender) mine = value;
  return grade_cast_all(io, mine, instance)[sender];
}

}  // namespace dprbg
