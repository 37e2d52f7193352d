// A synchronous n-player cluster with private channels and per-batch
// round streams.
//
// Each player runs on its own thread; rounds advance in lockstep through a
// barrier. Messages sent during round r are delivered (to everyone,
// sorted deterministically) at the start of round r+1 — exactly the
// synchronous model of Section 2. Byzantine players are ordinary programs
// that misbehave; the honest code never trusts anything it receives
// without validation.
//
// Round streams: the cluster multiplexes any number of independent
// lockstep streams over the same player set. Stream 0 is the root stream
// every program starts on; `PartyIo::instance(batch)` opens (or revisits)
// a per-(player, batch) handle on stream `batch`, with its own rng,
// inbox, staging buffer, and round counter. Every envelope carries its
// stream id on the wire (Msg::batch) and the demux delivers it only to
// that stream, so a player can be in round r of batch k's exposure while
// round 1 of batch k+1's Bit-Gen deal is in flight — the pipelined
// Coin-Gen scheduler (src/coin/coin_pipeline.h) is built on exactly this.
// A stream's barrier fires when every active player of its domain roster
// is waiting on it (by default: every active player — the single-stream
// case degenerates to the old global barrier bit-for-bit). Stream
// domains (`register_stream_domain`) carve contiguous stream ranges out
// for player subsets — the transport under the Committee view in
// net/committee.h, which is how K independent n-player committees share
// one cluster.
//
// Determinism: every (player, stream) handle gets an independent ChaCha20
// stream derived from (cluster seed, stream id, player id) — stream 0
// reproduces the historical per-player streams exactly — inboxes are
// sorted by (from, tag, send order), and threads only interact at
// barriers — a fixed seed replays an identical execution per stream.

#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/telemetry.h"
#include "net/fault.h"
#include "net/lockstep.h"
#include "net/misbehavior.h"
#include "net/msg.h"

namespace dprbg {

class Committee;

class Cluster final : public LockstepTransport {
 public:
  using Program = std::function<void(PartyIo&)>;

  // n players tolerating t faults; `seed` drives all player randomness.
  Cluster(int n, int t, std::uint64_t seed);

  // Runs one program per player to completion (spawns n threads; a program
  // that returns early keeps participating in barriers so the rest can
  // finish). Rethrows the first player exception, if any.
  void run(std::vector<Program> programs);

  // Convenience: every player runs `honest` except the ids in `faulty`,
  // which run `adversary` (if null, faulty players crash immediately —
  // they never send anything).
  void run(const Program& honest, const std::vector<int>& faulty,
           const Program& adversary);

  [[nodiscard]] int n() const { return n_; }
  [[nodiscard]] int t() const { return t_; }

  // Installs a link-fault injector consulted at every exchange (see
  // net/fault.h for the fault model and replay contract). Pass nullptr to
  // restore perfect links. Must not be called while run() is active; with
  // no injector (or an empty plan) delivery is byte-identical to a
  // fault-free cluster. Fault rounds are indexed by each stream's own
  // exchange count since construction — for single-stream (root-only)
  // runs this is the cluster's total exchange count, exactly the old
  // contract; a pipelined run applies the plan to every stream's round r
  // independently, which keeps delivery deterministic regardless of how
  // the streams interleave in wall-clock.
  void set_fault_injector(std::shared_ptr<const FaultInjector> injector) {
    injector_ = std::move(injector);
  }
  [[nodiscard]] const FaultInjector* fault_injector() const {
    return injector_.get();
  }
  // Aggregate fault effects across all run() calls (all-zero without an
  // injector).
  [[nodiscard]] const FaultCounters& faults() const { return faults_; }

  // Installs a per-peer misbehavior manager (net/misbehavior.h). The
  // demux feeds it stale/foreign/slow-envelope signals, decoders feed it
  // decode failures via PartyIo::note_decode_failure, and envelopes from
  // a peer the manager has banned are suppressed at admit time (counted
  // in banned_suppressions and the domain ledgers, never delivered).
  // Self-deliveries are never suppressed — a banned peer keeps its own
  // loopback, exactly like a disconnected node still sees itself. Pass
  // nullptr to disable; must not be called while run() is active. The
  // manager's n must match the cluster's.
  void set_misbehavior_manager(std::shared_ptr<MisbehaviorManager> mgr);
  [[nodiscard]] MisbehaviorManager* misbehavior() const {
    return misbehavior_.get();
  }

  // -------------------------------------------------------------------
  // Stream domains (committees).
  //
  // A domain carves out a contiguous slice of the round-stream id space
  // for a subset of players: streams [first_stream, first_stream +
  // stream_count) barrier over exactly `members` (instead of the whole
  // cluster), may carry their own fault injector, and account injected
  // faults separately. This is the transport half of the Committee view
  // in net/committee.h — protocols never see it directly.
  //
  // Rules (DPRBG_CHECK-enforced): registration only while run() is not
  // active; committee ids unique; stream ranges disjoint from other
  // registered domains; members distinct and in [0, n). Streams outside
  // every registered range stay in the default domain (committee 0, all
  // players) — the unregistered cluster therefore behaves bit-for-bit as
  // before. Re-registering a range over an already-opened stream (the
  // root stream exists from construction) is allowed only before that
  // stream's first exchange.
  // -------------------------------------------------------------------
  void register_stream_domain(std::uint32_t committee,
                              std::uint32_t first_stream,
                              std::uint32_t stream_count,
                              const std::vector<int>& members);
  // Installs a fault injector consulted for this domain's streams only
  // (overriding the cluster-wide injector there). Same replay contract as
  // set_fault_injector; rounds are still indexed per-stream.
  void set_domain_fault_injector(std::uint32_t committee,
                                 std::shared_ptr<const FaultInjector> injector);
  // Fault effects charged to one domain's streams. For committee 0 with
  // no registered domain this is the default domain, i.e. everything a
  // plain cluster injects; summed over all domains it equals faults().
  [[nodiscard]] const FaultCounters& domain_faults(
      std::uint32_t committee) const;
  // A locked snapshot of one domain's misbehavior ledger — link-fault
  // effects plus the demux rejections charged to its streams. Unlike
  // domain_faults() (a reference the exchanges keep mutating), this is
  // safe to poll from a monitor thread while run() is active.
  struct DomainLedger {
    FaultCounters faults;
    std::uint64_t stale = 0;    // stale-tag rejections on this domain
    std::uint64_t foreign = 0;  // foreign-roster rejections on this domain
    std::uint64_t decode = 0;   // decode failures reported by receivers
    std::uint64_t slow = 0;     // delay-queue merges (late envelopes)
    std::uint64_t banned = 0;   // envelopes suppressed from banned peers
  };
  [[nodiscard]] DomainLedger domain_ledger(std::uint32_t committee) const;
  // The committee id owning `stream` (0: default domain).
  [[nodiscard]] std::uint32_t committee_of(std::uint32_t stream) const;
  // Envelopes rejected because sender or receiver was outside the
  // stream's domain roster. PartyIo handles are roster-guarded at
  // creation and at sync, so like stale_rejections() this must stay 0 —
  // a nonzero count means committee traffic leaked across rosters.
  // Like every cluster-wide rejection counter below, this is the sum of
  // the domain ledgers, taken under the cluster's lock.
  [[nodiscard]] std::uint64_t foreign_rejections() const;

  // Simulated one-way link latency per lockstep exchange, in
  // microseconds. Zero (the default) reproduces the historical
  // compute-bound barrier. When nonzero, every thread sleeps this long
  // after its stream's exchange — transcripts are unaffected (barriers
  // already fix the order), but wall-clock now charges one network
  // traversal per round, so overlapped streams genuinely hide round
  // latency (bench/pipeline measures exactly this).
  void set_round_latency_us(unsigned us) { round_latency_us_ = us; }
  [[nodiscard]] unsigned round_latency_us() const {
    return round_latency_us_;
  }
  // Per-domain override of the simulated round latency: a slow committee
  // on an otherwise fast cluster (the failover chaos tests and the
  // crash-committee bench model stalls exactly this way). -1 (the
  // default) inherits the cluster-wide value; committee 0 with no
  // registered domain addresses the default domain. Must not be called
  // while run() is active.
  void set_domain_round_latency_us(std::uint32_t committee, int us);

  // Envelopes whose wire batch id did not match the stream being
  // exchanged, rejected by the demux instead of delivered. PartyIo
  // stamps every envelope with its own stream and delay queues are
  // per-stream, so this must stay 0 — the chaos tests assert it under
  // stale-tag delay floods (a nonzero count would mean cross-batch
  // misdelivery).
  [[nodiscard]] std::uint64_t stale_rejections() const;

  // Envelopes whose body failed protocol decoding at the receiver
  // (reported via PartyIo::note_decode_failure). Unlike stale/foreign —
  // which are demux invariants that must stay 0 — this counts actual
  // Byzantine (or corrupted) payloads and is nonzero under chaos plans.
  [[nodiscard]] std::uint64_t decode_rejections() const;
  // Envelopes that arrived via the delay queue, i.e. at least one round
  // later than sent — each is one barrier-stall observation charged to
  // its sender.
  [[nodiscard]] std::uint64_t slow_envelopes() const;
  // Envelopes suppressed at admit time because the misbehavior manager
  // had banned the sender: counted here and in the ledgers, delivered
  // nowhere.
  [[nodiscard]] std::uint64_t banned_suppressions() const;

  // Aggregate communication across all players, streams, and run() calls.
  [[nodiscard]] const CommCounters& comm() const { return comm_; }
  // Per-player communication staged so far: player i's root handle plus
  // all of its per-batch instance handles. Must not be called while
  // run() is active. For programs that end with a sync(), the
  // message/byte sums equal comm() exactly; `rounds` is the player's own
  // total sync count across its handles (not summed into comm().rounds,
  // which counts cluster exchanges).
  [[nodiscard]] std::vector<CommCounters> per_player_comm() const;
  // Surfaces the per-peer communication ledgers (per_player_comm) as
  // labeled telemetry counters net_player_{messages,bytes}_total
  // {player=i}. Adds the delta since the previous publish, so repeated
  // calls keep the counters monotonic. No-op while telemetry is
  // disabled; must not be called while run() is active (it reads
  // per_player_comm).
  void publish_comm_telemetry();
  // Aggregate field-operation counts across all player threads.
  [[nodiscard]] const FieldCounters& field_ops() const { return field_ops_; }
  // Per-player field-operation counts from the last run(). Work done on
  // pipeline worker threads is included as long as the driver folds the
  // worker deltas back into the root thread before the program returns
  // (pipelined_coin_gen does).
  [[nodiscard]] const std::vector<FieldCounters>& per_player_field_ops()
      const {
    return per_player_field_ops_;
  }

 private:
  friend class Committee;  // opens member handles on committee streams

  // A registered slice of the stream-id space (see the public section).
  // The default domain has stream_count 0 (covers every unregistered
  // stream) and an empty roster (meaning: all players).
  struct StreamDomain {
    std::uint32_t committee = 0;
    std::uint32_t first_stream = 0;
    std::uint32_t stream_count = 0;
    std::vector<char> roster;  // indexed by player id; empty: everyone
    std::shared_ptr<const FaultInjector> injector;  // nullptr: cluster-wide
    FaultCounters faults;
    // Demux rejections and decode failures charged to this domain's
    // streams; the cluster-wide counters are their sums.
    AdmitLedger ledger;
    std::uint64_t slow = 0;  // delay-queue merges (late envelopes)
    // Simulated round latency override; -1 inherits the cluster's value.
    int round_latency_us = -1;
    // Cached telemetry counters for this domain (and its ledger's
    // mirrors), labeled committee=<id>; filled lazily under mu_ the first
    // time an exchange runs with telemetry enabled (never touched while
    // disabled), and stable thereafter — the registry keeps instruments
    // alive for the process lifetime.
    Counter* tel_messages = nullptr;
    Counter* tel_bytes = nullptr;
    Counter* tel_faults = nullptr;
    Counter* tel_slow = nullptr;
  };

  // The record of one independent lockstep round stream: its players'
  // handles and its barrier state. Streams share the cluster's mutex and
  // cv; each keeps its own barrier generation, exchange counter, delay
  // queue, and owning domain.
  struct RoundStream {
    std::uint32_t id = 0;
    // Indexed by player id; null until that player opens its handle (a
    // crashed player never does — its column is skipped).
    std::vector<std::unique_ptr<PartyIo>> handles;
    int waiting = 0;
    std::uint64_t generation = 0;
    std::uint64_t exchange_index = 0;
    DelayQueue delayed;
    StreamDomain* domain = nullptr;
  };

  // Custom barrier with drop support: the last roster thread to arrive on
  // a stream performs that stream's message exchange, then releases its
  // waiters. A player whose program returns "drops" — every stream's
  // barrier stops waiting for it, so crash-faulty or early-returning
  // programs cannot deadlock any round.
  void sync(PartyIo& party) override;
  void drop(int player);
  void do_exchange(RoundStream& st);  // called with mu_ held
  // Fills a domain's cached telemetry counters (with mu_ held, telemetry
  // enabled).
  void ensure_domain_telemetry(StreamDomain& dom);

  // Domain lookup/roster helpers (domain registration is forbidden while
  // run() is active, so lock-free reads from player threads are safe).
  StreamDomain& domain_of(std::uint32_t stream);
  [[nodiscard]] const StreamDomain& domain_of(std::uint32_t stream) const;
  static bool in_roster(const StreamDomain& d, int player) {
    return d.roster.empty() || d.roster[static_cast<std::size_t>(player)] != 0;
  }
  // Threads a stream's barrier waits for: active players in its roster.
  [[nodiscard]] int stream_expected(const RoundStream& st) const;

  // The (player, stream) handle, created on first use (with mu_ taken).
  PartyIo& open(int player, std::uint32_t stream) override;
  [[nodiscard]] StreamLabels labels(std::uint32_t stream) const override;
  // The locked half of PartyIo::note_decode_failure: charges the failure
  // to the reporting stream's domain ledger.
  void note_decode_failure(const PartyIo& reporter, int from) override;
  // Sums one ledger field over every domain, under mu_.
  [[nodiscard]] std::uint64_t sum_domains(
      std::uint64_t (*field)(const StreamDomain&)) const;

  int n_;
  int t_;
  std::uint64_t seed_;

  mutable std::mutex mu_;  // domain_ledger() snapshots under the lock
  std::condition_variable cv_;
  int expected_ = 0;  // active (not yet returned) player threads
  std::vector<char> active_;  // per-player: root program still running
  // The stream records, keyed by stream id; std::map keeps references
  // (and the handles they own) stable while new streams open mid-run.
  std::map<std::uint32_t, RoundStream> streams_;

  StreamDomain default_domain_;
  // unique_ptr keeps RoundStream::domain pointers stable across
  // registrations.
  std::vector<std::unique_ptr<StreamDomain>> domains_;

  CommCounters comm_;
  FieldCounters field_ops_;
  std::vector<FieldCounters> per_player_field_ops_;

  std::shared_ptr<const FaultInjector> injector_;
  std::shared_ptr<MisbehaviorManager> misbehavior_;
  FaultCounters faults_;
  unsigned round_latency_us_ = 0;
  // Reused per-exchange routing scratch (guarded by mu_, like every
  // do_exchange structure): the outer vector survives across exchanges
  // so routing does not malloc per round. The inner vectors move into
  // the delivered Inboxes, so only the outer shell is retained.
  std::vector<std::vector<Msg>> exchange_scratch_;

  // Telemetry: barrier-wait histogram (cached under mu_) and the
  // per-player comm levels already published as counters.
  Histogram* tel_barrier_wait_ = nullptr;
  std::vector<CommCounters> published_comm_;
};

}  // namespace dprbg
