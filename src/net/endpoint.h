// The endpoint abstraction every protocol is written against.
//
// The paper's protocols (VSS, Bit-Gen, Coin-Gen, the BA family) are
// fixed-n cliques: they care about "my index among n players", not about
// which transport those players live on. `NetEndpoint` captures exactly
// the surface the protocol entry points use — identity (id/n/t), per-
// handle randomness, the lockstep round API (send/send_all/sync/inbox),
// per-batch instances, and the accounting hooks TraceSpan reads — so the
// same template body runs unchanged over:
//
//   * `PartyIo`  — the one per-(player, stream) handle (net/lockstep.h),
//     on either transport: the simulated `Cluster` (net/cluster.h) or a
//     real-socket `TcpCluster` node (net/tcp_cluster.h, where it keeps
//     the name `TcpPartyIo`). Each transport keeps one record per stream
//     that owns the stream's handles and its barrier state.
//   * `Endpoint` — a committee-local view (net/committee.h) that remaps
//     a committee's member indices onto a slice of a larger cluster's
//     players and round streams.
//
// Keeping this a concept (mirroring the `FiniteField` concept in
// gf/field.h) rather than a virtual interface keeps the per-message hot
// path free of dispatch and lets each Io type return its own concrete
// references from `instance()`.

#pragma once

#include <concepts>
#include <cstdint>
#include <vector>

#include "common/metrics.h"
#include "net/msg.h"
#include "rng/chacha.h"

namespace dprbg {

template <typename Io>
concept NetEndpoint =
    requires(Io& io, const Io& cio, int to, std::uint32_t tag,
             std::uint32_t batch, std::vector<std::uint8_t> body) {
      // Identity: my index in [0, n), the clique size, the fault bound.
      { cio.id() } -> std::convertible_to<int>;
      { cio.n() } -> std::convertible_to<int>;
      { cio.t() } -> std::convertible_to<int>;
      // Per-(player, stream) deterministic randomness.
      { io.rng() } -> std::same_as<Chacha&>;
      // The round stream this handle drives (0: the endpoint's root) and
      // the committee/stream-domain it belongs to (0: default/whole
      // cluster). TraceSpan stamps both onto every span.
      { cio.stream() } -> std::convertible_to<std::uint32_t>;
      { cio.committee() } -> std::convertible_to<std::uint32_t>;
      // The sibling handle for round stream `batch` (same identity,
      // independent rng/inbox/round counter); `instance(0)` is `io`.
      { io.instance(batch) } -> std::same_as<Io&>;
      // Lockstep messaging: point-to-point send, all-player announce,
      // barrier + delivery, and the last delivered inbox.
      io.send(to, tag, std::move(body));
      io.send_all(tag, body);
      { io.sync() } -> std::same_as<const Inbox&>;
      { cio.inbox() } -> std::same_as<const Inbox&>;
      // Misbehavior feedback: report that the last-delivered message from
      // player `to` (an index in this endpoint's clique) failed protocol
      // decoding. Transports attribute and score it (net/misbehavior.h);
      // a no-op transport is a valid model.
      io.note_decode_failure(to);
      // Accounting: staged communication and completed rounds, as
      // consumed by TraceSpan (common/trace.h).
      { cio.sent() } -> std::same_as<const CommCounters&>;
      { cio.rounds() } -> std::convertible_to<std::uint64_t>;
    };

}  // namespace dprbg
