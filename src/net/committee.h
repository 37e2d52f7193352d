// Committee: an index-remapped view of n player endpoints.
//
// The paper's protocols are fixed-n cliques; scaling past one clique
// means running many of them side by side (the sharded beacon in
// src/beacon/beacon.h). A `Committee` carves a member subset and a
// contiguous round-stream slice out of a larger `Cluster` and presents
// them as a self-contained n-player world: member i of the committee
// sees itself as player i of n, streams starting at 0, an inbox whose
// sender ids are committee-local, and its own fault plan and fault/trace
// accounting. `Endpoint` is the committee-local counterpart of
// `PartyIo` and models the same `NetEndpoint` concept, so every protocol
// template runs unchanged over either.
//
// Mapping: committee members are the sorted global player ids; local id
// = rank. Local stream s rides on global stream `first_stream + s`, so
// a committee's lockstep barriers involve exactly its members (the
// cluster's stream domains, net/cluster.h). Since global ids are
// ascending in local order, the cluster's (from, tag) inbox order is
// preserved by the remap — no re-sort, and the identity committee
// (committee #0, all players, first_stream 0) is bit-for-bit the raw
// cluster: same rng streams, same staging order, same wire bytes, same
// trace stamps (tests/committee_test.cpp locks this in).
//
// Fault plans: `set_fault_injector(FaultPlan)` takes a plan written
// against committee-local indices, remaps it onto global ids, and
// installs it on the committee's stream domain only; effects are charged
// to both the committee's ledger (`faults()`) and the cluster total.

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "net/cluster.h"
#include "net/endpoint.h"
#include "net/fault.h"
#include "net/msg.h"
#include "rng/chacha.h"

namespace dprbg {

class Committee;

// A member's handle on one committee round stream — the committee-local
// `PartyIo`. Created via Committee::endpoint()/instance(); like PartyIo,
// all methods are called only from the thread currently driving that
// stream for that member.
class Endpoint {
 public:
  // Committee-local identity: my rank among the committee's members.
  [[nodiscard]] int id() const { return local_id_; }
  [[nodiscard]] int n() const;
  [[nodiscard]] int t() const;
  // The underlying (global player, global stream) ChaCha stream — for
  // the identity committee this is exactly the raw handle's rng.
  [[nodiscard]] Chacha& rng() { return io_->rng(); }
  // Committee-local stream id (0: the committee's root stream).
  [[nodiscard]] std::uint32_t stream() const { return local_stream_; }
  [[nodiscard]] std::uint32_t committee() const;

  // The sibling endpoint for committee-local round stream `batch`;
  // `instance(0)` and `instance(stream())` return this endpoint itself.
  Endpoint& instance(std::uint32_t batch);

  // Lockstep messaging in committee-local indices. send/send_all remap
  // the receiver onto its global id; sync() barriers the committee's
  // stream and delivers the round's messages with sender ids remapped
  // back to committee-local ranks.
  void send(int to, std::uint32_t tag, std::vector<std::uint8_t> body);
  void send_all(std::uint32_t tag, const std::vector<std::uint8_t>& body);
  const Inbox& sync();
  [[nodiscard]] const Inbox& inbox() const { return inbox_; }

  // Reports a decode failure against committee-local sender `from`;
  // remapped onto the global id and charged to the committee's domain
  // ledger and misbehavior score (PartyIo::note_decode_failure).
  void note_decode_failure(int from);

  // Accounting of the underlying handle (identical to what a raw PartyIo
  // on the same stream would report).
  [[nodiscard]] const CommCounters& sent() const { return io_->sent(); }
  [[nodiscard]] std::uint64_t rounds() const { return io_->rounds(); }

 private:
  friend class Committee;
  Endpoint(Committee& committee, PartyIo& io, int local_id,
           std::uint32_t local_stream)
      : committee_(&committee),
        io_(&io),
        local_id_(local_id),
        local_stream_(local_stream) {}

  Committee* committee_;
  PartyIo* io_;  // handle on the committee's global stream
  int local_id_;
  std::uint32_t local_stream_;
  Inbox inbox_;  // last delivery, sender ids committee-local
};

class Committee {
 public:
  struct Options {
    // Committee id: stamped on trace events and used as the stream
    // domain key. Must be unique per cluster.
    std::uint32_t id = 0;
    // Global round stream carrying the committee's local stream 0;
    // local stream s rides on first_stream + s. Committee stream slices
    // must be disjoint and end at or below kMaxStreamId, the stream cap
    // both transports enforce (net/lockstep.h; it bounds the per-stream
    // state a peer can make a node allocate), so a stride of 4096 local
    // streams supports 16 committees.
    std::uint32_t first_stream = 0;
    std::uint32_t stream_count = 4096;
    // Fault tolerance inside the committee; -1: inherit the cluster's t.
    int t = -1;
  };

  // Carves `members` (global player ids, deduplicated and sorted
  // internally) out of `cluster` and registers the committee's stream
  // domain. Must happen before the cluster run that uses it.
  Committee(Cluster& cluster, std::vector<int> members, Options opts);
  // The identity committee: committee #0 over every player, streams
  // unshifted — the single-committee case, bit-for-bit the raw cluster.
  explicit Committee(Cluster& cluster);

  Committee(const Committee&) = delete;
  Committee& operator=(const Committee&) = delete;

  [[nodiscard]] std::uint32_t id() const { return opts_.id; }
  [[nodiscard]] int n() const { return static_cast<int>(members_.size()); }
  [[nodiscard]] int t() const { return t_; }
  // Sorted global player ids; index == committee-local id.
  [[nodiscard]] const std::vector<int>& members() const { return members_; }
  [[nodiscard]] Cluster& cluster() { return cluster_; }

  // The calling member's endpoint on the committee's root stream. `io`
  // may be any handle of that player (typically the root handle its
  // program received); the player must be a member.
  Endpoint& endpoint(PartyIo& io);

  // local <-> global translation. local_id returns -1 for non-members.
  [[nodiscard]] int global_id(int local) const;
  [[nodiscard]] int local_id(int global) const;
  [[nodiscard]] std::uint32_t global_stream(std::uint32_t local) const;

  // Installs `local_plan` (written in committee-local indices) as this
  // committee's link-fault injector: it applies to the committee's
  // streams only and leaves every other committee's links clean. Same
  // replay contract as Cluster::set_fault_injector.
  void set_fault_injector(FaultPlan local_plan,
                          std::uint64_t corruption_seed = 0xFA0175EEDull);
  // Fault effects charged to this committee's streams; summed over all
  // committees (plus the default domain) this equals Cluster::faults().
  [[nodiscard]] const FaultCounters& faults() const;

  // Locked snapshot of this committee's misbehavior ledger — link-fault
  // effects plus stale/foreign demux rejections on its streams. Safe to
  // poll from a monitor thread mid-run.
  [[nodiscard]] Cluster::DomainLedger ledger() const;

  // How many members the cluster's misbehavior manager bans right now;
  // 0 when no manager is installed. Lock-free, safe mid-run. More than
  // t() means the committee is past its fault bound — the beacon's
  // misbehavior eviction rule (beacon_failover.h).
  [[nodiscard]] int banned_members() const;

  // Per-committee simulated round latency override (Cluster contract;
  // -1 inherits the cluster-wide value). Models a slow roster on an
  // otherwise fast cluster. Must not be called while a run is active.
  void set_round_latency_us(int us);

  // Roster lifecycle for epoch reconfiguration (beacon_failover.h).
  // Forward-only: kActive (serving) -> kDraining (finishing in-flight
  // batches, pool migration underway) -> kRetired (shares migrated away;
  // the roster must not expose or deal again). The state is bookkeeping
  // for epoch drivers — the transport itself keeps working in any state.
  enum class RosterState : std::uint8_t { kActive, kDraining, kRetired };
  [[nodiscard]] RosterState state() const {
    return state_.load(std::memory_order_acquire);
  }
  void begin_drain();
  void retire();

  // Aggregate communication staged through this committee's endpoints
  // (messages/bytes as the underlying handles report them). Must not be
  // called while a run is active.
  [[nodiscard]] CommCounters comm() const;

 private:
  friend class Endpoint;
  // The (member, local stream) endpoint, created on first use.
  Endpoint& instance(int local_player, std::uint32_t local_stream);

  Cluster& cluster_;
  std::vector<int> members_;   // local id -> global id, ascending
  std::vector<int> local_of_;  // global id -> local id, -1 for outsiders
  Options opts_;
  int t_ = 0;
  std::atomic<RosterState> state_{RosterState::kActive};

  // Endpoints are created lazily from member threads (the pipelined
  // scheduler opens per-batch endpoints mid-run); the map is guarded and
  // unique_ptr keeps references stable.
  mutable std::mutex mu_;
  std::map<std::pair<int, std::uint32_t>, std::unique_ptr<Endpoint>>
      endpoints_;
};

// Both transports satisfy the protocol-facing concept.
static_assert(NetEndpoint<PartyIo>);
static_assert(NetEndpoint<Endpoint>);

}  // namespace dprbg
