// The lockstep handle and bookkeeping shared by every transport.
//
// The repo has two `NetEndpoint` transports: the in-process simulated
// `Cluster` (net/cluster.h) and the real-socket `TcpCluster`
// (net/tcp_cluster.h). Both present the same lockstep contract to the
// protocols — round r's sends are delivered, to everyone, at round r's
// sync(), in one canonical order — and both police arriving envelopes
// with the same admit rules. This header is the single definition of the
// pieces of that contract that MUST NOT drift between transports:
//
//   * `PartyIo`, the one per-(player, stream) handle: rng derivation,
//     send-side staging, comm charges and send trace points;
//   * `LockstepTransport`, the small interface under it that each
//     transport implements: open a handle, sync a round, label a stream,
//     and find the ledger a decode failure is charged to;
//   * the stream-id cap;
//   * the admit decision (stale -> foreign -> banned, self-deliveries
//     exempt from ban suppression) with its bookkeeping
//     (`lockstep_admit`), and the decode-failure path
//     (`lockstep_decode_failure`); and
//   * the canonical inbox order (stable by send order, sorted by
//     (from, tag)).
//
// A transport that routes envelopes through `lockstep_admit` and sorts
// delivered rounds with `lockstep_sort_inbox` produces inboxes
// bit-for-bit identical to any other transport fed the same per-sender
// send sequences — which is exactly what the TCP-vs-simulated
// equivalence suite (tests/tcp_cluster_test.cpp) asserts.

#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/metrics.h"
#include "net/misbehavior.h"
#include "net/msg.h"
#include "rng/chacha.h"

namespace dprbg {

class Counter;  // common/telemetry.h
class PartyIo;

// The highest round-stream id either transport opens or accepts. The cap
// bounds the per-stream state a peer can make a node allocate (the TCP
// reader refuses frames beyond it) and is the space committee domains
// are strided over (net/committee.h). Every handle is constructed through
// PartyIo's constructor, which enforces it. Batch ids grow monotonically
// without reuse (DPrbg never recycles them), so a long-running instance
// hits this loudly instead of running past what a TCP peer would accept.
inline constexpr std::uint32_t kMaxStreamId = 0xFFFF;

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

// Admit-time rejections and receiver-reported decode failures, counted
// per admit domain: one stream domain of the simulated cluster, or one
// TCP node. The telemetry mirrors are labeled counters a transport may
// export alongside the counts (null: none).
struct AdmitLedger {
  std::uint64_t stale = 0;
  std::uint64_t foreign = 0;
  std::uint64_t banned = 0;
  std::uint64_t decode = 0;
  Counter* tel_stale = nullptr;
  Counter* tel_foreign = nullptr;
  Counter* tel_banned = nullptr;
  Counter* tel_decode = nullptr;
};

// What a stream's net events are stamped with in traces: the
// domain-local batch id (global stream minus its domain's first stream)
// and the committee id. The default domain starts at stream 0 in
// committee 0, so unsharded traces carry the raw stream id.
struct StreamLabels {
  std::uint32_t batch = 0;
  std::uint32_t committee = 0;
};

// The bookkeeping for one rejected envelope (any verdict but kDeliver):
// the misbehavior signal it scores against the sender (stale and foreign)
// or note_suppressed (banned — suppression is an effect of standing, not
// a fresh observation), the ledger count and its telemetry mirror, and a
// net/<verdict> trace point stamped at (to, round).
void lockstep_reject(AdmitVerdict verdict, const Msg& msg, int to,
                     std::uint64_t round, StreamLabels labels,
                     MisbehaviorManager* mgr, AdmitLedger& ledger);

// The admit gate both transports route every arriving envelope through,
// called with the ledger's lock held: classify_envelope, then
// lockstep_reject for anything not delivered. Returns whether `msg` goes
// to player `to`'s inbox.
template <typename InRosterFn>
[[nodiscard]] bool lockstep_admit(const Msg& msg, int to,
                                  std::uint32_t stream, InRosterFn&& in_roster,
                                  MisbehaviorManager* mgr, AdmitLedger& ledger,
                                  std::uint64_t round, StreamLabels labels) {
  const AdmitVerdict verdict =
      classify_envelope(msg, to, stream, in_roster, mgr);
  if (verdict == AdmitVerdict::kDeliver) return true;
  lockstep_reject(verdict, msg, to, round, labels, mgr, ledger);
  return false;
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

// The transport half of a PartyIo: everything that differs between the
// simulated cluster and a TCP node. What a handle does per message —
// staging, comm charges, send trace points — is PartyIo's own, so the
// per-message path never goes through this interface.
class LockstepTransport {
 public:
  // The (player, stream) handle, created on first use and stable for the
  // transport's lifetime.
  virtual PartyIo& open(int player, std::uint32_t stream) = 0;
  // Ends `io`'s round: takes its staged envelopes, blocks until the
  // barrier on its stream fires, and delivers its inbox.
  virtual void sync(PartyIo& io) = 0;
  // The trace labels of `stream`; PartyIo::committee() reads these too.
  [[nodiscard]] virtual StreamLabels labels(std::uint32_t stream) const = 0;
  // Charges a decode failure `reporter` reports against `from` through
  // lockstep_decode_failure, under the lock guarding the stream's ledger.
  virtual void note_decode_failure(const PartyIo& reporter, int from) = 0;

 protected:
  ~LockstepTransport() = default;
};

// The per-(player, stream) handle passed to a player's program, on
// either transport. All methods are called only from the thread currently
// driving that stream for that player (the player's root thread, or the
// worker thread the pipelined scheduler dedicates to the batch).
class PartyIo {
 public:
  [[nodiscard]] int id() const { return id_; }
  [[nodiscard]] int n() const { return n_; }
  [[nodiscard]] int t() const { return t_; }
  [[nodiscard]] Chacha& rng() { return rng_; }
  // The round stream this handle sends and receives on (0: root).
  [[nodiscard]] std::uint32_t stream() const { return stream_; }
  // The committee (stream domain) this handle's stream belongs to — 0
  // unless the stream falls in a range registered via
  // Cluster::register_stream_domain (net/committee.h builds on this).
  [[nodiscard]] std::uint32_t committee() const {
    return net_.labels(stream_).committee;
  }

  // The per-(player, batch) handle for round stream `batch`, created on
  // first use (stable thereafter). `instance(0)` and `instance(stream())`
  // return this handle itself. Handles share the player's identity but
  // nothing else: independent rng, inbox, staging, and round counter.
  PartyIo& instance(std::uint32_t batch);

  // Queue a private message for delivery next round (of this stream).
  void send(int to, std::uint32_t tag, std::vector<std::uint8_t> body);
  // Point-to-point "announce": send the same body to every player
  // (including a free self-delivery). This is NOT a broadcast channel —
  // a Byzantine sender can equivocate by calling send() per receiver.
  void send_all(std::uint32_t tag, const std::vector<std::uint8_t>& body);

  // End the round: block until every player still in the run reaches
  // this round of this stream, then receive the messages sent to this
  // player during the ended round.
  const Inbox& sync();

  // Messages delivered at the last sync().
  [[nodiscard]] const Inbox& inbox() const { return inbox_; }

  // Reports that a message from `from` (delivered on this stream) failed
  // protocol decoding: counted in the stream's ledger, traced, and
  // forwarded to the misbehavior manager as a kDecodeFailure signal
  // against `from` (lockstep_decode_failure). Self-reports and
  // out-of-range senders are ignored. Honest decoders call this at every
  // `if (!decoded)` drop site, turning what used to be a silent drop
  // into an attributable event.
  void note_decode_failure(int from);

  // Communication this player has staged so far on this stream
  // (self-deliveries free); `sent().rounds` counts this handle's
  // completed sync() calls.
  [[nodiscard]] const CommCounters& sent() const { return sent_; }
  // Rounds this handle has completed (== sent().rounds). TraceSpan
  // (common/trace.h) uses this to stamp per-phase round ranges.
  [[nodiscard]] std::uint64_t rounds() const { return sent_.rounds; }

 private:
  friend class Cluster;
  friend class TcpCluster;
  friend class Endpoint;  // steals the delivered inbox for id remapping

  // Stream 0 keeps the historical per-player ChaCha stream ids
  // (lockstep_rng_stream), so root-stream transcripts are bit-for-bit
  // unchanged and a TCP node replays its simulated twin's randomness.
  PartyIo(LockstepTransport& net, int id, int n, int t, std::uint64_t seed,
          std::uint32_t stream);

  struct Envelope {
    int to;
    Msg msg;
  };

  // Moves the last delivered messages out (committee endpoints remap
  // sender ids and re-deliver into their own inbox).
  std::vector<Msg> take_inbox() { return std::move(inbox_).take_all(); }

  LockstepTransport& net_;
  int id_;
  int n_;
  int t_;
  std::uint32_t stream_;
  Chacha rng_;
  Inbox inbox_;
  std::vector<Envelope> staged_;  // outgoing, taken by the transport's sync
  CommCounters sent_;
};

// The decode-failure path both transports share, called with the
// ledger's lock held: the ledger count and its telemetry mirror, a
// net/decode_reject trace point stamped at the reporting handle's
// rounds(), and the misbehavior report — receiver-attributed, so the
// policy's decode reporter quorum (>= t+1 distinct witnesses before
// scoring) can discount a lone Byzantine framer.
void lockstep_decode_failure(const PartyIo& reporter, int from,
                             StreamLabels labels, MisbehaviorManager* mgr,
                             AdmitLedger& ledger);

}  // namespace dprbg
