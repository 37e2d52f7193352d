// The real-socket NetEndpoint backend: one process per player, TCP
// between them, and a round barrier that recreates the simulated
// cluster's lockstep contract on top of asynchronous frame arrival.
//
// One `TcpCluster` object is ONE player's half of an n-node deployment:
// it owns the player's listen socket, the n-1 `TcpPeer` connections and
// the reactor thread that drives them (deterministic roles — this node
// dials every lower id and accepts every higher id, so each pair has
// exactly one link), the handshake (the Hello's protocol version,
// roster hash and claimed id, all validated on both ends), and the demux
// that turns arriving kRound frames back into the per-(stream, round)
// inboxes the protocols expect. Each stream has one record
// (`StreamState`) holding this node's handle on it and its barrier and
// demux state.
//
// Determinism contract (the whole point): the handle is the same
// `PartyIo` the simulated cluster hands out (net/lockstep.h), with this
// node as its `LockstepTransport`, so a protocol templated on NetEndpoint
// produces BIT-FOR-BIT the same transcript over TCP as over the
// simulated cluster at the same (n, t, seed). Every input the protocol
// can observe is reproduced exactly:
//
//   * randomness — Chacha(seed, lockstep_rng_stream(id, stream)), the
//     shared derivation in net/lockstep.h;
//   * inbox content — round r's sync() delivers precisely the messages
//     peers sent during their round r of the same stream (the kRound
//     frame for (stream, r) is the complete bundle, sent even when
//     empty as the barrier marker);
//   * inbox order — per-sender send order, senders concatenated
//     ascending, then the shared lockstep_sort_inbox stable sort, which
//     erases the nondeterministic cross-sender arrival order TCP gives
//     us;
//   * admit gating — the shared lockstep_admit path: stale (wire
//     batch != stream), foreign, and banned-suppression verdicts score
//     and count exactly as in the simulated demux, with the same
//     self-delivery ban exemption;
//   * comm accounting — PartyIo::send charges body + the envelope header
//     size (lockstep_envelope_overhead) on both transports; the physical
//     frame bytes (length prefix, bundle header) appear only in the
//     transport's own TcpStats/telemetry.
//
// Failure semantics: a peer whose connection dies while a run is active
// is "lapsed" — permanently, for that run. Barriers stop waiting for it
// (exactly like Cluster::drop on a crashed program), frames it managed
// to deliver earlier still count, and a later reconnect restores the
// TRANSPORT only: the process that comes back is mid-protocol-restart
// and its fresh traffic is dropped (counted in TcpStats::lapsed_frames)
// rather than spliced into rounds it never participated in. Protocol
// rejoin is an epoch/reconfiguration concern (net/reconfig.h), not a
// transport one. A peer that finishes its program cleanly announces it
// with a kBye frame — the graceful twin of lapsing.
//
// Thread model (Leader/Followers): one reactor thread per node owns the
// listen socket, every dial, both halves of every handshake and the
// out-queue drains. Reading and demuxing peer frames is a per-node
// reader role that one thread holds at a time. While a run is active the
// role belongs to the protocol threads (the pipelined scheduler drives
// one stream per worker): a sync() whose round is still open takes the
// free role, waits on the epoll set of up connections itself, and
// demuxes every frame under one mutex, signalling any other stream
// whose round it completes through that stream's condition variable.
// Once its own round completes it returns directly, and passes the role
// to exactly one other stream whose round is still open. Frames that
// arrive while no sync() is pending stay in the kernel socket buffer.
// Outside a run the reactor holds the role for its reads. The reactor
// takes it mid-run only to install a reconnect or replace a connection,
// interrupting the leader through an eventfd, as the stop path does.
// See DESIGN.md §16.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/telemetry.h"
#include "net/framing.h"
#include "net/lockstep.h"
#include "net/misbehavior.h"
#include "net/msg.h"
#include "net/peer.h"

namespace dprbg {

class TcpCluster;

struct TcpNodeAddr {
  std::string host;
  std::uint16_t port = 0;
};

// FNV-1a over (n, t, every "host:port") — both ends of a handshake must
// have been configured with the same player list. The seed is NOT
// hashed: it is protocol input, not topology, and a seed mismatch shows
// up as a protocol divergence, not a transport misconfiguration.
[[nodiscard]] std::uint64_t roster_hash(int n, int t,
                                        const std::vector<TcpNodeAddr>& roster);

struct TcpClusterOptions {
  unsigned connect_timeout_ms = 2000;
  unsigned handshake_timeout_ms = 2000;
  unsigned backoff_initial_ms = 10;
  unsigned backoff_max_ms = 1000;
  // start(): how long to wait for every peer link to come up.
  unsigned start_timeout_ms = 15000;
  // Shutdown: how long the reactor lingers so final round frames and the
  // Bye still queued behind a busy socket reach the wire.
  unsigned drain_timeout_ms = 2000;
  // The listen socket, bound by the caller (tcp_listen_socket) so a bind
  // error is reported where it can be handled: dprbg_node binds its
  // address, the in-process loopback harness binds all n ephemeral ports
  // before any roster hash is computed. Required by start(); the node
  // owns it from then on.
  int listen_fd = -1;
};

// The historical name of a TCP node's handle: the one lockstep handle
// (net/lockstep.h), opened on a TcpCluster. One process owns only its own
// player's handles; committee() is 0 (stream domains are not carved over
// TCP yet, so every stream barriers over the full roster).
using TcpPartyIo = PartyIo;

// Transport-level counters, snapshot under the demux lock — the test
// surface (no telemetry needed) for connect/reconnect/reject/drop
// behavior.
struct TcpStats {
  struct PeerStats {
    bool up = false;
    bool lapsed = false;
    bool bye = false;
    std::uint64_t connects = 0;
    std::uint64_t reconnects = 0;
    std::uint64_t handshake_rejects = 0;  // dialer-side
    std::uint64_t tx_frames = 0;
    std::uint64_t tx_bytes = 0;
    std::uint64_t rx_frames = 0;
    std::uint64_t rx_bytes = 0;
    std::uint64_t dropped_frames = 0;  // send-side, while the link was down
  };
  std::vector<PeerStats> peers;  // indexed by player id; [self] is zeroed
  // Listener-side handshake rejects by reason (kHandshakeRejectReasons).
  std::uint64_t accept_rejects[kHandshakeRejectReasons] = {0, 0, 0, 0};
  std::uint64_t frame_decode_failures = 0;  // kRound payloads that failed
  std::uint64_t lapsed_frames = 0;  // frames from lapsed/unknown peers
  std::uint64_t stale_rejections = 0;
  std::uint64_t foreign_rejections = 0;
  std::uint64_t decode_rejections = 0;  // receiver-reported (protocol layer)
  std::uint64_t banned_suppressions = 0;
  // Messages buffered in the demux, not yet delivered by a sync().
  std::uint64_t recv_pending = 0;
  // kRound frames read on a sync() caller's thread (the leader) rather
  // than the reactor's.
  std::uint64_t rx_frames_inline = 0;
};

class TcpCluster final : public LockstepTransport {
 public:
  using Program = std::function<void(TcpPartyIo&)>;

  // This process is player `id` of `roster` (size n), tolerating t
  // faults, with all player randomness derived from `seed` — the same
  // (n, t, seed) every node must be configured with.
  TcpCluster(int id, int n, int t, std::uint64_t seed,
             std::vector<TcpNodeAddr> roster, TcpClusterOptions opts = {});
  ~TcpCluster();
  TcpCluster(const TcpCluster&) = delete;
  TcpCluster& operator=(const TcpCluster&) = delete;

  [[nodiscard]] int id() const { return id_; }
  [[nodiscard]] int n() const { return n_; }
  [[nodiscard]] int t() const { return t_; }
  [[nodiscard]] std::uint16_t listen_port() const { return listen_port_; }

  // Same contract as Cluster::set_misbehavior_manager: demux-side
  // signals and ban suppression; must be set before start().
  void set_misbehavior_manager(std::shared_ptr<MisbehaviorManager> mgr);
  [[nodiscard]] MisbehaviorManager* misbehavior() const {
    return misbehavior_.get();
  }

  // Starts the reactor on options' listen socket and blocks until all
  // n-1 links are up or start_timeout elapses.
  // Returns whether the full mesh came up; on false the caller may
  // inspect stats() (e.g. handshake rejects) and must still destroy the
  // cluster normally.
  [[nodiscard]] bool start();

  // Runs this player's program to completion on the calling thread,
  // then announces kBye (the reactor drains anything still queued). One
  // run per cluster (a returned program told every peer it is done —
  // rejoin is an epoch concern, not a transport one). Exceptions
  // propagate after the Bye so remote barriers are not deadlocked by our
  // crash.
  void run(const Program& program);

  [[nodiscard]] TcpStats stats() const;
  // Aggregate communication (protocol-layer accounting, matching the
  // simulated cluster's ledger bit-for-bit for equivalent runs).
  [[nodiscard]] const CommCounters& comm() const { return comm_; }

  // Publishes per-peer transport counters as labeled telemetry
  // (net_tcp_*{node=i,peer=j}); delta-based, safe to call repeatedly.
  // No-op while telemetry is disabled.
  void publish_telemetry();

  // Chaos/test hook: cuts the live connection to `peer` (both halves see
  // a close, the dialer side reconnects with backoff). During a run this
  // is a peer kill — the peer lapses; between start() and run() it
  // exercises pure transport reconnect. No-op for self/out-of-range.
  void sever_peer(int peer);

 private:
  // The record of one round stream: this node's handle on it, what each
  // sender has delivered, and what is buffered awaiting our own sync().
  // A record exists once the stream is opened or a frame for it arrives,
  // whichever comes first.
  struct StreamState {
    std::unique_ptr<PartyIo> io;  // null until this node opens the stream
    // next_round[j]: the lowest round whose bundle from sender j has
    // NOT yet arrived. An honest sender's bundles arrive strictly in
    // order (one ordered TCP connection, sequential per-stream syncs),
    // so only the contiguous next round is ever accepted — any other
    // label is a protocol violation, dropped and scored, which also
    // bounds the demux buffer without a window heuristic.
    std::vector<std::uint64_t> next_round;
    // pending[j][round] -> that sender's bundle, in its send order
    // (rounds the sender has shipped but our own sync() hasn't consumed
    // yet — nonempty exactly when the peer runs ahead of us).
    std::vector<std::map<std::uint64_t, std::vector<Msg>>> pending;
    // The round this stream's sync() is blocked on, if any (one thread
    // drives a stream), and the condition variable it sleeps on while
    // another thread holds the reader role.
    bool waiting = false;
    std::uint64_t wait_round = 0;
    std::condition_variable cv;
  };

  // Reactor thread: dials, accepts, handshakes, drains backlogs, and
  // reads outside a run.
  void reactor_loop();
  void wake_reactor();
  // Interrupts a leader blocked in read_ready().
  void wake_leader();
  // Dialer half of the handshake.
  void dial(TcpPeer& p, TcpPeer::Clock::time_point now);
  void send_hello(TcpPeer& p, TcpPeer::Clock::time_point now);
  void dial_failed(TcpPeer& p, TcpPeer::Clock::time_point now, bool reject);
  void on_dial_readable(TcpPeer& p, TcpPeer::Clock::time_point now);
  // Listener half: a fresh inbound connection awaiting its Hello.
  struct Inbound {
    int fd = -1;
    TcpPeer::Clock::time_point deadline;
    FrameReader reader;
  };
  // Installs or rejects the connection once its Hello is in (or it
  // closed); either way `in.fd` becomes -1 and the entry is dropped.
  void on_inbound_readable(Inbound& in);
  void reject_inbound(HandshakeReject why);
  // Validates a Hello/HelloAck against our own; on success `*peer` is
  // the id it claims (the caller checks the dial direction).
  bool check_hello(FrameType type, FrameType want,
                   std::span<const std::uint8_t> payload, int* peer,
                   HandshakeReject* why) const;
  // Reader role: installs `fd` with the bytes already read behind the
  // handshake, and adds it to the epoll set.
  void peer_up(TcpPeer& p, int fd, FrameReader reader);
  // Reader role: removes the connection from the epoll set and closes it.
  void peer_down(TcpPeer& p, bool notify);
  // Reader role: one epoll_wait over the up connections (up to
  // `timeout_ms`, -1 blocks), then reads and demuxes every ready one.
  // `inline_read`: the caller is a sync() leader. noexcept: a throw would
  // leave the role held and every other stream's barrier parked.
  void read_ready(int timeout_ms, bool inline_read) noexcept;
  // Reads what the socket has and demuxes every complete frame; tears
  // the connection down on EOF, an oversized frame, or a violation.
  void on_readable(TcpPeer& p, bool inline_read);
  void process_frames(TcpPeer& p, bool closed, bool inline_read);
  // Reactor: blocks until it holds the reader role, interrupting a
  // leader; released with release_reader_locked().
  void acquire_reader();
  // With mu_ held: gives the reader role up — to the reactor if it asked,
  // else to one stream whose round is still open.
  void release_reader_locked();
  // With mu_ held: signal every blocked sync() so it re-checks its
  // barrier (a peer departed or the node stops).
  void wake_all_waiters_locked();
  [[nodiscard]] bool round_ready_locked(const StreamState& st,
                                        std::uint64_t round) const;

  // LockstepTransport. sync ships one kRound bundle per peer still in
  // the run (empty ones included — they are the barrier markers), blocks
  // until every non-lapsed peer's bundle for io's round has arrived, and
  // delivers the canonically ordered inbox. open creates this node's
  // handles only (player == id()); decode failures go to the node's
  // ledger.
  void sync(PartyIo& io) override;
  PartyIo& open(int player, std::uint32_t stream) override;
  [[nodiscard]] StreamLabels labels(std::uint32_t stream) const override {
    return StreamLabels{stream, 0};
  }
  void note_decode_failure(const PartyIo& reporter, int from) override;
  StreamState& stream_state_locked(std::uint32_t stream);

  const int id_;
  const int n_;
  const int t_;
  const std::uint64_t seed_;
  const std::vector<TcpNodeAddr> roster_;
  const TcpClusterOptions opts_;
  const std::uint64_t roster_hash_;

  int listen_fd_ = -1;
  std::uint16_t listen_port_ = 0;
  int wake_fd_ = -1;  // eventfd: backlog queued, link down, run end, stop
  int epoll_fd_ = -1;    // up connections + lead_wake_fd_
  int lead_wake_fd_ = -1;  // eventfd: the reactor wants the role, or stop
  std::atomic<bool> stop_{false};
  bool started_ = false;
  HelloFrame local_hello_;

  // peers_[j] for j != id_; [id_] stays null.
  std::vector<std::unique_ptr<TcpPeer>> peers_;
  std::vector<Inbound> inbound_;  // reactor-owned

  mutable std::mutex mu_;  // stream records, demux + barrier state
  std::condition_variable up_cv_;  // start(): a link came up
  // The stream records, keyed by stream id; never erased, so references
  // (and the handles they own) stay stable.
  std::map<std::uint32_t, StreamState> streams_;
  std::vector<char> lapsed_;  // latched per run on disconnect
  std::vector<char> bye_;     // peer's program finished cleanly
  bool run_active_ = false;
  // The reader role (see the thread model above): held by at most one
  // thread; `reactor_wants_reader_` keeps waiting streams from taking it
  // while the reactor waits for it on `reader_cv_`.
  bool reader_busy_ = false;
  bool reactor_wants_reader_ = false;
  std::condition_variable reader_cv_;
  std::vector<StreamState*> waiting_;  // streams blocked in sync()
  std::uint64_t rx_frames_inline_ = 0;
  std::uint64_t accept_rejects_[kHandshakeRejectReasons] = {0, 0, 0, 0};
  std::uint64_t frame_decode_failures_ = 0;
  std::uint64_t lapsed_frames_ = 0;
  AdmitLedger ledger_;  // admit rejections + decode failures, all streams
  std::uint64_t buffered_msgs_ = 0;  // demuxed, not yet sync()-consumed

  std::shared_ptr<MisbehaviorManager> misbehavior_;
  CommCounters comm_;

  // Telemetry (lazily created; labels node=<id>[,peer=<j>]).
  Histogram* tel_barrier_wait_ = nullptr;
  Gauge* tel_recv_pending_ = nullptr;
  struct PeerTelemetry {
    Counter* connects = nullptr;
    Counter* reconnects = nullptr;
    Counter* tx_bytes = nullptr;
    Counter* rx_bytes = nullptr;
    std::uint64_t published_connects = 0;
    std::uint64_t published_reconnects = 0;
    std::uint64_t published_tx = 0;
    std::uint64_t published_rx = 0;
  };
  std::vector<PeerTelemetry> peer_telemetry_;

  // Last: the reactor uses every member above (joined in ~TcpCluster).
  std::thread reactor_;
};

// --------------------------------------------------------------------------
// In-process loopback harness: n TcpClusters on 127.0.0.1 ephemeral
// ports, used by the equivalence tests and available to benches. Binds
// every listen socket first (two-phase), so the roster — and therefore
// the roster hash every handshake validates — is complete before any
// node constructs.
class TcpLoopback {
 public:
  TcpLoopback(int n, int t, std::uint64_t seed, TcpClusterOptions opts = {});

  [[nodiscard]] int n() const { return static_cast<int>(nodes_.size()); }
  [[nodiscard]] TcpCluster& node(int i) { return *nodes_[static_cast<std::size_t>(i)]; }
  [[nodiscard]] const std::vector<TcpNodeAddr>& roster() const {
    return roster_;
  }

  // Starts every node concurrently; true iff the full mesh came up.
  [[nodiscard]] bool start();

  // Runs programs[i] on node i, each on its own thread, to completion.
  // Rethrows the first program exception after all threads join.
  void run(std::vector<TcpCluster::Program> programs);

 private:
  std::vector<TcpNodeAddr> roster_;
  std::vector<std::unique_ptr<TcpCluster>> nodes_;
};

}  // namespace dprbg
