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
//
// Three rounds: the sender sends its value, everybody echoes, everybody
// echoes the echo-majority. Values are opaque byte strings; equality is
// byte equality.
//
// Message batching: with n grade-casts running in parallel (Coin-Gen
// step 7 has every player as a sender), the echo rounds would naively
// cost n^2 sends per player. Instead each player sends ONE message per
// recipient per round carrying its echoes for all n senders — n^2
// messages of size ~n|v| per round network-wide, which is the accounting
// Theorem 2 uses ("n^2 messages each of size ntk").

#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/serial.h"
#include "common/trace.h"
#include "net/endpoint.h"
#include "net/msg.h"

namespace dprbg {

struct GradeCastResult {
  std::vector<std::uint8_t> value;  // empty when confidence == 0
  int confidence = 0;               // 0, 1, or 2
};

namespace gradecast_detail {

using MaybeValue = std::optional<std::vector<std::uint8_t>>;

// One batched echo message: per sender, one canonical varint key
// (0 = absent, else value length + 1) followed by the raw value bytes —
// 1 byte of overhead for values under 127 bytes. The decoder accepts
// only this canonical form, so every accepted batch re-encodes to the
// same bytes.
inline std::vector<std::uint8_t> encode_echoes(
    const std::vector<MaybeValue>& per_sender) {
  ByteWriter w;
  for (const auto& v : per_sender) {
    if (!v) {
      w.uvarint(0);
      continue;
    }
    w.uvarint(static_cast<std::uint64_t>(v->size()) + 1);
    w.bytes(*v);
  }
  return std::move(w).take();
}

inline std::optional<std::vector<MaybeValue>> decode_echoes(
    const std::vector<std::uint8_t>& bytes, int n,
    std::size_t max_value_size) {
  // Every sender entry occupies at least 1 byte (the key varint); reject
  // batches that cannot possibly hold n entries before touching them,
  // so length validation always precedes allocation.
  if (bytes.size() < static_cast<std::size_t>(n)) return std::nullopt;
  ByteReader r(bytes);
  std::vector<MaybeValue> out(n);
  for (int s = 0; s < n; ++s) {
    const std::uint64_t key = r.uvarint();
    if (!r.ok()) return std::nullopt;
    if (key == 0) continue;  // absent
    const std::uint64_t len = key - 1;
    if (len > max_value_size || len > r.remaining()) return std::nullopt;
    std::vector<std::uint8_t> value =
        r.bytes(static_cast<std::size_t>(len), max_value_size);
    if (!r.ok()) return std::nullopt;
    out[s] = std::move(value);
  }
  if (!r.done()) return std::nullopt;
  return out;
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
  using gradecast_detail::MaybeValue;
  const int n = io.n();
  const int t = io.t();
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
  std::vector<MaybeValue> received(n);
  for (int s = 0; s < n; ++s) {
    if (const Msg* m = in1.from(s, send_tag)) {
      if (m->body.size() <= max_value_size) received[s] = m->body;
    }
  }

  // Round 2: echo what we received from each sender (batched).
  TraceSpan echo_span(io, "gradecast", "echo");
  io.send_all(echo_tag, gradecast_detail::encode_echoes(received));
  const Inbox& in2 = io.sync();
  echo_span.close();
  // echoes[s]: value -> count of players echoing it for sender s.
  std::vector<std::map<std::vector<std::uint8_t>, int>> echoes(n);
  for (const Msg* m : in2.with_tag(echo_tag)) {
    const auto decoded =
        gradecast_detail::decode_echoes(m->body, n, max_value_size);
    if (!decoded) {
      // Malformed batch: drop the sender entirely, and score it.
      io.note_decode_failure(m->from);
      continue;
    }
    for (int s = 0; s < n; ++s) {
      if ((*decoded)[s]) ++echoes[s][*(*decoded)[s]];
    }
  }

  // Round 3: support the value echoed by >= n - t players, if any
  // (batched like round 2).
  std::vector<MaybeValue> supports(n);
  for (int s = 0; s < n; ++s) {
    for (const auto& [value, count] : echoes[s]) {
      if (count >= n - t) {
        supports[s] = value;
        break;  // at most one value can reach n - t with n >= 3t+1
      }
    }
  }
  TraceSpan support_span(io, "gradecast", "support");
  io.send_all(support_tag, gradecast_detail::encode_echoes(supports));
  const Inbox& in3 = io.sync();
  support_span.close();

  std::vector<GradeCastResult> out(n);
  std::vector<std::map<std::vector<std::uint8_t>, int>> votes(n);
  for (const Msg* m : in3.with_tag(support_tag)) {
    const auto decoded =
        gradecast_detail::decode_echoes(m->body, n, max_value_size);
    if (!decoded) {
      io.note_decode_failure(m->from);
      continue;
    }
    for (int s = 0; s < n; ++s) {
      if ((*decoded)[s]) ++votes[s][*(*decoded)[s]];
    }
  }
  for (int s = 0; s < n; ++s) {
    const std::pair<const std::vector<std::uint8_t>, int>* best = nullptr;
    for (const auto& entry : votes[s]) {
      if (best == nullptr || entry.second > best->second) best = &entry;
    }
    if (best == nullptr) continue;
    if (best->second >= n - t) {
      out[s] = {best->first, 2};
    } else if (best->second >= t + 1) {
      out[s] = {best->first, 1};
    }
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
