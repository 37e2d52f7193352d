// Lockstep bookkeeping shared by every transport.
//
// The repo has two `NetEndpoint` transports: the in-process simulated
// `Cluster` (net/cluster.h) and the real-socket `TcpCluster`
// (net/tcp_cluster.h). Both present the same lockstep contract to the
// protocols — round r's sends are delivered, to everyone, at round r's
// sync(), in one canonical order — and both police arriving envelopes
// with the same admit rules. This header is the single definition of the
// pieces of that contract that MUST NOT drift between transports:
//
//   * the per-(player, stream) deterministic rng-stream derivation,
//   * the admit decision (stale -> foreign -> banned, self-deliveries
//     exempt from ban suppression) and its mapping onto misbehavior
//     signals, and
//   * the canonical inbox order (stable by send order, sorted by
//     (from, tag)).
//
// A transport that routes envelopes through `classify_envelope` and
// sorts delivered rounds with `lockstep_sort_inbox` produces inboxes
// bit-for-bit identical to any other transport fed the same per-sender
// send sequences — which is exactly what the TCP-vs-simulated
// equivalence suite (tests/tcp_cluster_test.cpp) asserts.

#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "net/misbehavior.h"
#include "net/msg.h"

namespace dprbg {

// The ChaCha stream id for (player, round stream). Stream 0 keeps the
// historical per-player stream ids (plain player id) so root-stream
// transcripts are bit-for-bit unchanged; batch streams get
// (batch << 32 | player), disjoint from both the root ids and the
// trusted dealer's genesis stream (0xDEA1E4). Both transports derive
// their handles' rngs from exactly this, which is what makes a TCP node
// and a simulated player with the same (seed, id, stream) replay the
// same randomness.
[[nodiscard]] inline std::uint64_t lockstep_rng_stream(int id,
                                                       std::uint32_t stream) {
  if (stream == 0) return static_cast<std::uint64_t>(id);
  return (static_cast<std::uint64_t>(stream) << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(id));
}

// Disposition of one arriving envelope at admit time.
enum class AdmitVerdict : std::uint8_t {
  kDeliver = 0,  // passes every gate; goes to the receiver's inbox
  kStale = 1,    // wire batch id does not match the stream being exchanged
  kForeign = 2,  // sender or receiver outside the stream's roster
  kBanned = 3,   // sender banned by the misbehavior manager (self exempt)
};

[[nodiscard]] inline const char* to_string(AdmitVerdict v) {
  switch (v) {
    case AdmitVerdict::kDeliver: return "deliver";
    case AdmitVerdict::kStale: return "stale";
    case AdmitVerdict::kForeign: return "foreign";
    case AdmitVerdict::kBanned: return "banned";
  }
  return "?";
}

// The shared admit decision, in the canonical order: stale first (an
// envelope surfacing outside its stream is a demux invariant violation
// no matter who sent it), then roster membership, then ban suppression —
// last, so a banned peer's traffic has already been charged to comm and
// fault ledgers by the time it is suppressed (the counted-but-never-
// delivered contract), and self-deliveries are exempt (a banned peer
// keeps its own loopback, exactly like a disconnected node still sees
// itself). `in_roster(player)` answers membership in the stream's
// domain roster.
template <typename InRosterFn>
[[nodiscard]] AdmitVerdict classify_envelope(const Msg& msg, int to,
                                             std::uint32_t stream,
                                             InRosterFn&& in_roster,
                                             const MisbehaviorManager* mgr) {
  if (msg.batch != stream) return AdmitVerdict::kStale;
  if (!in_roster(msg.from) || !in_roster(to)) return AdmitVerdict::kForeign;
  if (mgr != nullptr && to != msg.from && mgr->banned(msg.from)) {
    return AdmitVerdict::kBanned;
  }
  return AdmitVerdict::kDeliver;
}

// The misbehavior signal a rejection verdict scores against the sender.
// kBanned maps to nothing: suppression is an effect of standing, not a
// fresh observation (the manager counts it via note_suppressed instead).
[[nodiscard]] inline std::optional<MisbehaviorSignal> signal_for(
    AdmitVerdict v) {
  switch (v) {
    case AdmitVerdict::kStale: return MisbehaviorSignal::kStaleFlood;
    case AdmitVerdict::kForeign: return MisbehaviorSignal::kForeignTraffic;
    case AdmitVerdict::kDeliver:
    case AdmitVerdict::kBanned: return std::nullopt;
  }
  return std::nullopt;
}

// The wire overhead one envelope is charged in the comm ledgers: the
// size of its envelope header (net/msg.h). Both transports charge
// exactly this (the TCP transport's physical framing — length prefix,
// bundle header — appears only in its own TcpStats/telemetry), which is
// what keeps comm() totals bit-for-bit identical across backends.
[[nodiscard]] inline std::uint64_t lockstep_envelope_overhead(
    int from, std::uint32_t tag, std::uint32_t batch, std::size_t body_len) {
  EnvelopeHeader h;
  h.from = static_cast<std::uint32_t>(from);
  h.tag = tag;
  h.batch = batch;
  h.body_len = static_cast<std::uint32_t>(body_len);
  return envelope_header_bytes(h);
}
[[nodiscard]] inline std::uint64_t lockstep_envelope_overhead(const Msg& msg) {
  return lockstep_envelope_overhead(msg.from, msg.tag, msg.batch,
                                    msg.body.size());
}

// Canonical delivery order for one round's inbox: stable by arrival
// (per-sender send order; transports append senders in ascending id
// order), sorted by (from, tag) so same-sender same-tag duplicates stay
// adjacent in send order. Protocol determinism — "the first message from
// sender s with tag t" — rests on every transport sorting exactly this
// way.
inline void lockstep_sort_inbox(std::vector<Msg>& msgs) {
  std::stable_sort(msgs.begin(), msgs.end(), [](const Msg& a, const Msg& b) {
    return a.from != b.from ? a.from < b.from : a.tag < b.tag;
  });
}

}  // namespace dprbg
