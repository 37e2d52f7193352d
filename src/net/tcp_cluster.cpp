#include "net/tcp_cluster.h"

#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <optional>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/trace.h"

namespace dprbg {

namespace {

// epoll_event tag of the leader's eventfd (peer ids tag their sockets).
constexpr std::uint32_t kLeadWakeTag = 0xFFFFFFFFu;

}  // namespace

std::uint64_t roster_hash(int n, int t,
                          const std::vector<TcpNodeAddr>& roster) {
  // FNV-1a, 64-bit.
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ull;
  };
  const auto mix_u32 = [&](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) mix(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  mix_u32(static_cast<std::uint32_t>(n));
  mix_u32(static_cast<std::uint32_t>(t));
  for (const TcpNodeAddr& a : roster) {
    for (char c : a.host) mix(static_cast<std::uint8_t>(c));
    mix(static_cast<std::uint8_t>(a.port & 0xFF));
    mix(static_cast<std::uint8_t>(a.port >> 8));
    mix(0);  // entry separator
  }
  return h;
}

// ---------------------------------------------------------------------------
// TcpCluster.

TcpCluster::TcpCluster(int id, int n, int t, std::uint64_t seed,
                       std::vector<TcpNodeAddr> roster,
                       TcpClusterOptions opts)
    : id_(id),
      n_(n),
      t_(t),
      seed_(seed),
      roster_(std::move(roster)),
      opts_(opts),
      roster_hash_(roster_hash(n, t, roster_)) {
  DPRBG_CHECK(n_ >= 1 && t_ >= 0 && t_ < n_);
  DPRBG_CHECK(id_ >= 0 && id_ < n_);
  DPRBG_CHECK(static_cast<int>(roster_.size()) == n_);
  peers_.resize(static_cast<std::size_t>(n_));
  lapsed_.assign(static_cast<std::size_t>(n_), 0);
  bye_.assign(static_cast<std::size_t>(n_), 0);
  peer_telemetry_.resize(static_cast<std::size_t>(n_));
}

TcpCluster::~TcpCluster() {
  {
    std::lock_guard lk(mu_);
    stop_.store(true, std::memory_order_release);
    wake_all_waiters_locked();
  }
  up_cv_.notify_all();
  if (reactor_.joinable()) {
    wake_leader();
    wake_reactor();
    reactor_.join();
  }
  for (const int fd : {wake_fd_, lead_wake_fd_, epoll_fd_, listen_fd_}) {
    if (fd >= 0) ::close(fd);
  }
}

void TcpCluster::set_misbehavior_manager(
    std::shared_ptr<MisbehaviorManager> mgr) {
  std::lock_guard lk(mu_);
  DPRBG_CHECK(!run_active_);
  if (mgr != nullptr) DPRBG_CHECK(mgr->n() == n_);
  misbehavior_ = std::move(mgr);
}

bool TcpCluster::start() {
  DPRBG_CHECK(!started_);
  started_ = true;
  DPRBG_CHECK(opts_.listen_fd >= 0);
  listen_fd_ = opts_.listen_fd;
  listen_port_ = tcp_local_port(listen_fd_);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  lead_wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  DPRBG_CHECK(wake_fd_ >= 0 && lead_wake_fd_ >= 0 && epoll_fd_ >= 0);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u32 = kLeadWakeTag;
  DPRBG_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, lead_wake_fd_, &ev) == 0);

  local_hello_.proto_version = kTcpProtoVersion;
  local_hello_.roster_hash = roster_hash_;
  local_hello_.node_id = static_cast<std::uint32_t>(id_);
  local_hello_.n = static_cast<std::uint32_t>(n_);

  const auto now = TcpPeer::Clock::now();
  for (int j = 0; j < n_; ++j) {
    if (j == id_) continue;
    const TcpNodeAddr& a = roster_[static_cast<std::size_t>(j)];
    sockaddr_in addr{};
    const bool dialer = j < id_;
    DPRBG_CHECK(tcp_resolve(a.host, a.port, &addr) || !dialer);
    auto p = std::make_unique<TcpPeer>(j, addr, dialer);
    p->rs.deadline = now;  // dial right away
    p->rs.backoff_ms = opts_.backoff_initial_ms;
    peers_[static_cast<std::size_t>(j)] = std::move(p);
  }
  reactor_ = std::thread([this] { reactor_loop(); });

  const auto all_up = [this] {
    for (const auto& p : peers_) {
      if (p != nullptr && !p->up()) return false;
    }
    return true;
  };
  std::unique_lock lk(mu_);
  return up_cv_.wait_for(lk, std::chrono::milliseconds(opts_.start_timeout_ms),
                         [&] { return all_up() || stop_.load(); }) &&
         all_up();
}

// ---------------------------------------------------------------------------
// The reactor: one poll loop owns dials, accepts, handshakes and the
// out-queue drains, and reads the up connections (through the epoll set)
// while no run is active.

void TcpCluster::wake_reactor() {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void TcpCluster::wake_leader() {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(lead_wake_fd_, &one, sizeof(one));
}

void TcpCluster::reactor_loop() {
  using Clock = TcpPeer::Clock;
  using Link = TcpPeer::Link;
  // who[] tags; -4 - k: inbound k.
  constexpr int kWake = -1, kListen = -2, kConns = -3;
  std::vector<pollfd> pfds;
  std::vector<int> who;
  std::optional<Clock::time_point> drain_until;
  bool holding = false;  // the reader role, kept from the shutdown on
  for (;;) {
    const auto now = Clock::now();
    const bool stopping = stop_.load(std::memory_order_acquire);
    int timeout_ms = -1;
    const auto arm = [&](Clock::time_point at) {
      const auto ms =
          std::chrono::ceil<std::chrono::milliseconds>(at - now).count();
      const int clamped = static_cast<int>(std::max<std::int64_t>(ms, 0));
      timeout_ms = timeout_ms < 0 ? clamped : std::min(timeout_ms, clamped);
    };
    if (stopping) {
      if (!holding) {
        acquire_reader();
        holding = true;
      }
      // Linger only while final frames still sit behind a busy socket.
      if (!drain_until) {
        drain_until = now + std::chrono::milliseconds(opts_.drain_timeout_ms);
      }
      const bool backlog =
          std::any_of(peers_.begin(), peers_.end(), [](const auto& p) {
            return p != nullptr && p->backlog_fd() >= 0;
          });
      if (!backlog || now >= *drain_until) break;
      arm(*drain_until);
    }

    pfds.clear();
    who.clear();
    pfds.push_back({wake_fd_, POLLIN, 0});
    who.push_back(kWake);
    if (!stopping) {
      pfds.push_back({listen_fd_, POLLIN, 0});
      who.push_back(kListen);
      std::lock_guard lk(mu_);
      if (!run_active_) {
        pfds.push_back({epoll_fd_, POLLIN, 0});
        who.push_back(kConns);
      }
    }
    for (auto& pp : peers_) {
      if (pp == nullptr) continue;
      TcpPeer& p = *pp;
      TcpPeer::ReactorState& rs = p.rs;
      // Only the shutdown drain runs once stopping; dials are abandoned.
      const bool dialing = !stopping && p.dialer() && !p.up();
      if (dialing) {
        if (rs.link == Link::kIdle && now >= rs.deadline) {
          dial(p, now);
        } else if (rs.link != Link::kIdle && now >= rs.deadline) {
          // A silent listener must not park the dialer: the handshake
          // timeout counts as a reject, a connect timeout does not.
          dial_failed(p, now, rs.link == Link::kHandshaking);
        }
        arm(rs.deadline);
      }
      pollfd pfd{p.backlog_fd(), POLLOUT, 0};
      if (dialing && rs.link == Link::kConnecting) {
        pfd = {rs.fd, POLLOUT, 0};
      } else if (dialing && rs.link == Link::kHandshaking) {
        pfd = {rs.fd, POLLIN, 0};
      }
      if (pfd.fd >= 0) {
        pfds.push_back(pfd);
        who.push_back(p.remote_id());
      }
    }
    if (!stopping) {
      for (std::size_t k = 0; k < inbound_.size(); ++k) {
        pfds.push_back({inbound_[k].fd, POLLIN, 0});
        who.push_back(-4 - static_cast<int>(k));
        arm(inbound_[k].deadline);
      }
    }

    const int rc = ::poll(pfds.data(), pfds.size(), timeout_ms);
    if (rc < 0 && errno != EINTR) break;
    const auto after = Clock::now();
    for (std::size_t i = 0; rc > 0 && i < pfds.size(); ++i) {
      const short rev = pfds[i].revents;
      const int w = who[i];
      if (rev == 0) continue;
      if (w >= 0) {
        TcpPeer& p = *peers_[static_cast<std::size_t>(w)];
        if (pfds[i].fd == p.rs.fd && p.rs.link == Link::kConnecting) {
          if (tcp_connect_result(p.rs.fd)) {
            send_hello(p, after);
          } else {
            dial_failed(p, after, /*reject=*/false);
          }
        } else if (pfds[i].fd == p.rs.fd &&
                   p.rs.link == Link::kHandshaking) {
          on_dial_readable(p, after);
        } else {
          // An up connection's out-queue. A write error drops the queue
          // and shuts the socket down for the reader-role holder to see.
          p.drain();
          if (stopping && (rev & (POLLHUP | POLLERR)) != 0) {
            peer_down(p, /*notify=*/false);
          }
        }
      } else if (w == kWake) {
        std::uint64_t drained = 0;
        [[maybe_unused]] const ssize_t n =
            ::read(wake_fd_, &drained, sizeof(drained));
      } else if (w == kListen) {
        for (int fd = tcp_accept(listen_fd_); fd >= 0;
             fd = tcp_accept(listen_fd_)) {
          Inbound in;
          in.fd = fd;
          in.deadline =
              after + std::chrono::milliseconds(opts_.handshake_timeout_ms);
          inbound_.push_back(std::move(in));
        }
      } else if (w == kConns) {
        // Between runs the reactor reads. A run that began since the
        // poll set was built owns the reads; a sync() outside any run
        // that is leading already reads them.
        {
          std::lock_guard lk(mu_);
          if (run_active_ || reader_busy_) continue;
          reader_busy_ = true;
        }
        read_ready(0, /*inline_read=*/false);
        std::lock_guard lk(mu_);
        release_reader_locked();
      } else {
        on_inbound_readable(inbound_[static_cast<std::size_t>(-4 - w)]);
      }
    }
    // A dialer that never sends its Hello is dropped at the handshake
    // deadline; it never holds up the other connections.
    for (Inbound& in : inbound_) {
      if (in.fd >= 0 && after >= in.deadline) {
        reject_inbound(HandshakeReject::kMalformed);
        ::close(in.fd);
        in.fd = -1;
      }
    }
    std::erase_if(inbound_, [](const Inbound& in) { return in.fd < 0; });
  }

  if (!holding) acquire_reader();
  for (auto& pp : peers_) {
    if (pp == nullptr) continue;
    peer_down(*pp, /*notify=*/false);
    if (pp->rs.fd >= 0) ::close(pp->rs.fd);
    pp->rs.fd = -1;
    pp->rs.link = Link::kIdle;
  }
  for (Inbound& in : inbound_) ::close(in.fd);
  inbound_.clear();
}

void TcpCluster::dial(TcpPeer& p, TcpPeer::Clock::time_point now) {
  bool connected = false;
  const int fd = tcp_dial(p.addr(), &connected);
  if (fd < 0) {
    dial_failed(p, now, /*reject=*/false);
    return;
  }
  p.rs.fd = fd;
  if (connected) {
    send_hello(p, now);
  } else {
    p.rs.link = TcpPeer::Link::kConnecting;
    p.rs.deadline = now + std::chrono::milliseconds(opts_.connect_timeout_ms);
  }
}

void TcpCluster::send_hello(TcpPeer& p, TcpPeer::Clock::time_point now) {
  if (!tcp_write_all(p.rs.fd, frame_bytes(FrameType::kHello,
                                          encode_hello(local_hello_)))) {
    dial_failed(p, now, /*reject=*/false);
    return;
  }
  p.rs.link = TcpPeer::Link::kHandshaking;
  p.rs.deadline = now + std::chrono::milliseconds(opts_.handshake_timeout_ms);
}

void TcpCluster::dial_failed(TcpPeer& p, TcpPeer::Clock::time_point now,
                             bool reject) {
  if (reject) p.note_reject();
  if (p.rs.fd >= 0) ::close(p.rs.fd);
  p.rs.fd = -1;
  p.rs.reader = FrameReader{};
  p.rs.link = TcpPeer::Link::kIdle;
  // Capped exponential backoff; a successful handshake resets it.
  p.rs.deadline = now + std::chrono::milliseconds(p.rs.backoff_ms);
  p.rs.backoff_ms = p.rs.backoff_ms >= opts_.backoff_max_ms / 2
                        ? opts_.backoff_max_ms
                        : p.rs.backoff_ms * 2;
}

void TcpCluster::on_dial_readable(TcpPeer& p, TcpPeer::Clock::time_point now) {
  const FrameReader::Fill fill = p.rs.reader.fill(p.rs.fd);
  if (fill == FrameReader::Fill::kAgain) return;
  FrameType type{};
  std::span<const std::uint8_t> payload;
  const FrameReader::Next next =
      p.rs.reader.next(kTcpMaxFrameBytes, &type, &payload);
  if (next == FrameReader::Next::kPartial &&
      fill == FrameReader::Fill::kData) {
    return;
  }
  int peer = -1;
  HandshakeReject why{};
  if (next == FrameReader::Next::kFrame &&
      check_hello(type, FrameType::kHelloAck, payload, &peer, &why) &&
      peer == p.remote_id()) {
    acquire_reader();
    peer_up(p, std::exchange(p.rs.fd, -1), std::exchange(p.rs.reader, {}));
    // The listener may already have sent round frames behind its Ack.
    process_frames(p, fill == FrameReader::Fill::kClosed,
                   /*inline_read=*/false);
    std::lock_guard lk(mu_);
    release_reader_locked();
    return;
  }
  // The listener closed on us (almost always a handshake reject on its
  // side — roster/version mismatch) or answered wrongly.
  dial_failed(p, now, /*reject=*/true);
}

bool TcpCluster::check_hello(FrameType type, FrameType want,
                             std::span<const std::uint8_t> payload, int* peer,
                             HandshakeReject* why) const {
  const auto h = type == want ? decode_hello(payload) : std::nullopt;
  if (!h) {
    *why = HandshakeReject::kMalformed;
  } else if (h->proto_version != local_hello_.proto_version) {
    *why = HandshakeReject::kProtoVersion;
  } else if (h->roster_hash != roster_hash_) {
    *why = HandshakeReject::kRosterHash;
  } else if (h->n != static_cast<std::uint32_t>(n_) ||
             h->node_id >= static_cast<std::uint32_t>(n_)) {
    *why = HandshakeReject::kBadId;
  } else {
    *peer = static_cast<int>(h->node_id);
    return true;
  }
  return false;
}

void TcpCluster::reject_inbound(HandshakeReject why) {
  std::lock_guard lk(mu_);
  ++accept_rejects_[static_cast<std::size_t>(why)];
}

void TcpCluster::on_inbound_readable(Inbound& in) {
  const FrameReader::Fill fill = in.reader.fill(in.fd);
  if (fill == FrameReader::Fill::kAgain) return;
  FrameType type{};
  std::span<const std::uint8_t> payload;
  const FrameReader::Next next =
      in.reader.next(kTcpMaxFrameBytes, &type, &payload);
  if (next == FrameReader::Next::kPartial &&
      fill == FrameReader::Fill::kData) {
    return;
  }
  // A full frame, or a connection closed before one arrived: either way
  // this connection is done with its handshake.
  const int fd = std::exchange(in.fd, -1);
  int peer = -1;
  HandshakeReject why = HandshakeReject::kMalformed;
  bool ok = next == FrameReader::Next::kFrame &&
            check_hello(type, FrameType::kHello, payload, &peer, &why);
  if (ok && peer <= id_) {
    // Higher ids dial lower ids: an inbound claim of a lower-or-equal id
    // is either an impostor or a miswired roster.
    ok = false;
    why = HandshakeReject::kBadId;
  }
  if (!ok) reject_inbound(why);
  if (!ok || !tcp_write_all(fd, frame_bytes(FrameType::kHelloAck,
                                            encode_hello(local_hello_)))) {
    ::close(fd);
    return;
  }
  TcpPeer& p = *peers_[static_cast<std::size_t>(peer)];
  acquire_reader();
  // A fresh accept replaces whatever connection this peer had.
  if (p.up()) peer_down(p, /*notify=*/true);
  peer_up(p, fd, std::move(in.reader));
  process_frames(p, fill == FrameReader::Fill::kClosed, /*inline_read=*/false);
  std::lock_guard lk(mu_);
  release_reader_locked();
}

void TcpCluster::peer_up(TcpPeer& p, int fd, FrameReader reader) {
  p.rd.fd = fd;
  p.rd.reader = std::move(reader);
  p.install(fd);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u32 = static_cast<std::uint32_t>(p.remote_id());
  DPRBG_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0);
  // No dial in flight; once this connection dies a dialer redials at
  // once, with the backoff reset.
  p.rs.link = TcpPeer::Link::kIdle;
  p.rs.deadline = TcpPeer::Clock::now();
  p.rs.backoff_ms = opts_.backoff_initial_ms;
  {
    std::lock_guard lk(mu_);
    if (telemetry_enabled()) {
      const int peer = p.remote_id();
      PeerTelemetry& pt = peer_telemetry_[static_cast<std::size_t>(peer)];
      const std::string l = "node=" + std::to_string(id_) +
                            ",peer=" + std::to_string(peer);
      if (pt.connects == nullptr) {
        pt.connects = &metrics().counter("net_tcp_connects_total", l);
        pt.reconnects = &metrics().counter("net_tcp_reconnects_total", l);
      }
      pt.connects->add(1);
      if (p.connects() > 1) pt.reconnects->add(1);
    }
  }
  up_cv_.notify_all();
}

void TcpCluster::peer_down(TcpPeer& p, bool notify) {
  if (p.rd.fd >= 0) ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, p.rd.fd, nullptr);
  const bool was_up = p.close();
  p.rd = TcpPeer::ReadState{};
  if (!was_up) return;
  wake_reactor();  // a dialer redials
  if (!notify) return;
  std::lock_guard lk(mu_);
  if (run_active_) {
    // Latched for the rest of the run: the process behind this link is
    // mid-restart, and lockstep state cannot absorb a rejoin. Barriers
    // stop waiting for it — the transport twin of Cluster::drop().
    lapsed_[static_cast<std::size_t>(p.remote_id())] = 1;
    wake_all_waiters_locked();
  }
}

void TcpCluster::wake_all_waiters_locked() {
  for (StreamState* st : waiting_) st->cv.notify_all();
}

void TcpCluster::acquire_reader() {
  std::unique_lock lk(mu_);
  if (reader_busy_) {
    reactor_wants_reader_ = true;
    wake_leader();
    reader_cv_.wait(lk, [this] { return !reader_busy_; });
    reactor_wants_reader_ = false;
  }
  reader_busy_ = true;
}

void TcpCluster::release_reader_locked() {
  reader_busy_ = false;
  if (reactor_wants_reader_) {
    reader_cv_.notify_one();
    return;
  }
  // Exactly one successor: the others stay asleep until their own round
  // completes or the role comes round to them.
  for (StreamState* st : waiting_) {
    if (!round_ready_locked(*st, st->wait_round)) {
      st->cv.notify_one();
      return;
    }
  }
}

bool TcpCluster::round_ready_locked(const StreamState& st,
                                    std::uint64_t round) const {
  if (stop_.load(std::memory_order_acquire)) return true;
  for (int j = 0; j < n_; ++j) {
    const auto u = static_cast<std::size_t>(j);
    if (j == id_ || st.next_round[u] > round || lapsed_[u] != 0 ||
        bye_[u] != 0) {
      continue;
    }
    return false;
  }
  return true;
}

TcpCluster::StreamState& TcpCluster::stream_state_locked(
    std::uint32_t stream) {
  StreamState& st = streams_[stream];
  if (st.next_round.empty()) {
    st.next_round.assign(static_cast<std::size_t>(n_), 0);
    st.pending.resize(static_cast<std::size_t>(n_));
  }
  return st;
}

void TcpCluster::read_ready(int timeout_ms, bool inline_read) noexcept {
  constexpr int kMaxEvents = 32;  // more ready peers: the next call
  epoll_event events[kMaxEvents];
  const int k = ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms);
  for (int i = 0; i < k; ++i) {
    const std::uint32_t tag = events[i].data.u32;
    if (tag == kLeadWakeTag) {
      std::uint64_t drained = 0;
      [[maybe_unused]] const ssize_t n =
          ::read(lead_wake_fd_, &drained, sizeof(drained));
      continue;
    }
    TcpPeer& p = *peers_[tag];
    if (p.rd.fd >= 0) on_readable(p, inline_read);
  }
}

void TcpCluster::on_readable(TcpPeer& p, bool inline_read) {
  const FrameReader::Fill fill = p.rd.reader.fill(p.rd.fd);
  if (fill == FrameReader::Fill::kAgain) return;
  process_frames(p, fill == FrameReader::Fill::kClosed, inline_read);
}

void TcpCluster::process_frames(TcpPeer& p, bool closed, bool inline_read) {
  const int peer = p.remote_id();
  const auto pu = static_cast<std::size_t>(peer);
  // Cut and decode every complete frame outside the demux lock; a Bye is
  // kept in sequence as an empty optional.
  std::vector<std::optional<RoundFrame>> arrivals;
  bool violation = false;
  bool dead = closed;
  std::uint64_t rounds_read = 0;
  for (;;) {
    FrameType type{};
    std::span<const std::uint8_t> payload;
    const FrameReader::Next next =
        p.rd.reader.next(kTcpMaxFrameBytes, &type, &payload);
    if (next == FrameReader::Next::kPartial) break;
    if (next == FrameReader::Next::kTooBig) {
      dead = true;
      break;
    }
    p.note_rx(kTcpFramePrefixBytes + payload.size());
    if (type == FrameType::kBye) {
      arrivals.emplace_back();
      continue;
    }
    // Hello/HelloAck after the handshake (or an unknown type), or a round
    // frame we cannot attribute to a (stream, round): it can never become
    // a barrier marker, so the only safe response is to cut the
    // connection — the peer lapses and barriers proceed without it.
    auto frame = type == FrameType::kRound
                     ? decode_round_frame(payload, peer, kTcpMaxFrameBytes)
                     : std::nullopt;
    if (type == FrameType::kRound) ++rounds_read;
    // A stream beyond the shared cap is a violation too: the cap bounds
    // how many stream records a hostile peer can make us allocate.
    if (!frame || frame->stream > kMaxStreamId) {
      violation = true;
      break;
    }
    arrivals.push_back(std::move(frame));
  }
  if (arrivals.empty() && !violation && !dead) return;

  // Demux under one lock acquisition; wake a blocked sync() only when an
  // arrival completes the round it waits on.
  std::vector<StreamState*> completed;
  {
    std::lock_guard lk(mu_);
    if (inline_read) rx_frames_inline_ += rounds_read;
    bool departed = false;
    for (auto& arrival : arrivals) {
      if (!arrival) {
        departed = departed || bye_[pu] == 0;
        bye_[pu] = 1;
        continue;
      }
      if (lapsed_[pu] != 0 || bye_[pu] != 0) {
        // Transport reconnected but the run moved on without this peer;
        // its fresh traffic has no round to join.
        ++lapsed_frames_;
        continue;
      }
      StreamState& st = stream_state_locked(arrival->stream);
      std::uint64_t& next = st.next_round[pu];
      if (arrival->round != next) {
        // One ordered connection + sequential per-stream rounds means an
        // honest sender can only ever deliver the contiguous next round;
        // anything else is a replay/skip attack. Dropping (instead of
        // buffering) also bounds demux memory.
        ++lapsed_frames_;
        if (misbehavior_ != nullptr) {
          misbehavior_->report(peer, MisbehaviorSignal::kStaleFlood);
        }
        continue;
      }
      ++next;
      if (!arrival->msgs.empty()) {
        buffered_msgs_ += arrival->msgs.size();
        st.pending[pu][arrival->round] = std::move(arrival->msgs);
        if (telemetry_enabled()) {
          if (tel_recv_pending_ == nullptr) {
            tel_recv_pending_ = &metrics().gauge(
                "net_tcp_recv_pending", "node=" + std::to_string(id_));
          }
          tel_recv_pending_->set(static_cast<std::int64_t>(buffered_msgs_));
        }
      }
      if (st.waiting && st.wait_round == arrival->round &&
          round_ready_locked(st, arrival->round)) {
        completed.push_back(&st);
      }
    }
    if (departed) wake_all_waiters_locked();
    if (violation) ++frame_decode_failures_;
  }
  // StreamStates are never erased, so the pointers outlive the lock.
  for (StreamState* st : completed) st->cv.notify_all();

  if (violation && misbehavior_ != nullptr) {
    misbehavior_->report_decode(peer, id_);
  }
  if (violation || dead) peer_down(p, /*notify=*/true);
}

void TcpCluster::sync(PartyIo& io) {
  const std::uint32_t stream = io.stream_;
  const std::uint64_t round = io.sent_.rounds;

  // Partition this round's staged envelopes by destination, preserving
  // send order; self-deliveries stay local (never touch a socket, never
  // charged — same as the simulated ledger).
  std::vector<std::vector<Msg>> outgoing(static_cast<std::size_t>(n_));
  std::vector<Msg> self;
  std::uint64_t msg_count = 0;
  std::uint64_t byte_count = 0;
  for (auto& env : io.staged_) {
    if (env.to == id_) {
      self.push_back(std::move(env.msg));
    } else {
      ++msg_count;
      byte_count +=
          env.msg.body.size() + lockstep_envelope_overhead(env.msg);
      outgoing[static_cast<std::size_t>(env.to)].push_back(
          std::move(env.msg));
    }
  }
  io.staged_.clear();
  // Ship one bundle per peer still in the run — empty ones included;
  // they are the round barrier markers. A peer that said Bye or lapsed
  // will never read another round, so it gets none (send() has already
  // charged the ledger, exactly as the simulator charges a send to a
  // dropped player). Each frame goes straight to the socket from this
  // thread; whatever the socket does not take is queued for the reactor.
  std::vector<char> departed(static_cast<std::size_t>(n_), 0);
  {
    std::lock_guard lk(mu_);
    for (int j = 0; j < n_; ++j) {
      const auto u = static_cast<std::size_t>(j);
      departed[u] = static_cast<char>(lapsed_[u] | bye_[u]);
    }
  }
  bool wake = false;
  for (int j = 0; j < n_; ++j) {
    if (j == id_ || departed[static_cast<std::size_t>(j)] != 0) continue;
    wake |= peers_[static_cast<std::size_t>(j)]->send(encode_round_frame(
        stream, round, outgoing[static_cast<std::size_t>(j)]));
  }
  if (wake) wake_reactor();

  MisbehaviorManager* mgr = misbehavior_.get();
  std::unique_lock lk(mu_);
  comm_.messages += msg_count;
  comm_.bytes += byte_count;
  StreamState& st = stream_state_locked(stream);

  if (!round_ready_locked(st, round)) {
    TelemetryClock::time_point t0;
    const bool tel_on = telemetry_enabled();
    if (tel_on) t0 = TelemetryClock::now();
    st.waiting = true;
    st.wait_round = round;
    waiting_.push_back(&st);
    for (;;) {
      // A follower until the round completes or the role is free to take.
      st.cv.wait(lk, [&] {
        return round_ready_locked(st, round) ||
               (!reader_busy_ && !reactor_wants_reader_);
      });
      if (round_ready_locked(st, round)) break;
      // The leader: read and demux on this thread until our own round
      // completes (or the reactor asks for the role), then hand off.
      reader_busy_ = true;
      while (!round_ready_locked(st, round) && !reactor_wants_reader_) {
        lk.unlock();
        read_ready(-1, /*inline_read=*/true);
        lk.lock();
      }
      release_reader_locked();
    }
    std::erase(waiting_, &st);
    st.waiting = false;
    if (tel_on) {
      if (tel_barrier_wait_ == nullptr) {
        tel_barrier_wait_ = &metrics().histogram(
            "net_tcp_barrier_wait_us", "node=" + std::to_string(id_));
      }
      tel_barrier_wait_->observe(telemetry_elapsed_us(t0));
    }
  }

  // Deliver: per-sender send order, senders ascending, through the
  // shared admit gate, then the shared canonical sort — the exact
  // pipeline the simulated exchange runs, minus physical transport.
  std::vector<Msg> next;
  const StreamLabels at = labels(stream);
  const auto admit = [&](Msg&& msg) {
    if (lockstep_admit(msg, id_, stream,
                       [&](int p) { return p >= 0 && p < n_; }, mgr,
                       ledger_, round, at)) {
      next.push_back(std::move(msg));
    }
  };
  for (int j = 0; j < n_; ++j) {
    if (j == id_) {
      for (Msg& m : self) admit(std::move(m));
      continue;
    }
    auto& per_sender = st.pending[static_cast<std::size_t>(j)];
    const auto it = per_sender.find(round);
    if (it != per_sender.end()) {
      buffered_msgs_ -= it->second.size();
      for (Msg& m : it->second) admit(std::move(m));
      per_sender.erase(it);
    }
  }
  lockstep_sort_inbox(next);
  io.inbox_ = Inbox{std::move(next)};
  ++comm_.rounds;
  if (telemetry_enabled() && tel_recv_pending_ != nullptr) {
    tel_recv_pending_->set(static_cast<std::int64_t>(buffered_msgs_));
  }
}

void TcpCluster::note_decode_failure(const PartyIo& reporter, int from) {
  std::lock_guard lk(mu_);
  lockstep_decode_failure(reporter, from, labels(reporter.stream()),
                          misbehavior_.get(), ledger_);
}

PartyIo& TcpCluster::open(int player, std::uint32_t stream) {
  DPRBG_CHECK(player == id_);  // a node holds only its own handles
  std::lock_guard lk(mu_);
  StreamState& st = stream_state_locked(stream);
  if (st.io == nullptr) {
    st.io.reset(new PartyIo(*this, id_, n_, t_, seed_, stream));
  }
  return *st.io;
}

void TcpCluster::run(const Program& program) {
  DPRBG_CHECK(started_);
  {
    std::lock_guard lk(mu_);
    DPRBG_CHECK(!run_active_);
    run_active_ = true;
  }
  PartyIo& root = open(id_, 0);
  std::exception_ptr err;
  try {
    program(root);
  } catch (...) {
    err = std::current_exception();
  }
  // Announce completion: peers must not wait on our barriers (kBye). This
  // runs on the exception path too — a crashed program is exactly when
  // remote barriers most need the release. The Bye rides behind any
  // queued round frames, and the reactor drains that backlog before the
  // sockets close (up to drain_timeout_ms at shutdown).
  for (auto& p : peers_) {
    if (p != nullptr) p->send(frame_bytes(FrameType::kBye, {}));
  }
  {
    std::lock_guard lk(mu_);
    run_active_ = false;
  }
  // The reactor takes the reads back (and drains any Bye backlog).
  wake_reactor();
  if (err) std::rethrow_exception(err);
}

TcpStats TcpCluster::stats() const {
  TcpStats out;
  out.peers.resize(static_cast<std::size_t>(n_));
  std::lock_guard lk(mu_);
  for (int j = 0; j < n_; ++j) {
    const TcpPeer* p = peers_[static_cast<std::size_t>(j)].get();
    if (p == nullptr) continue;
    TcpStats::PeerStats& ps = out.peers[static_cast<std::size_t>(j)];
    ps.up = p->up();
    ps.lapsed = lapsed_[static_cast<std::size_t>(j)] != 0;
    ps.bye = bye_[static_cast<std::size_t>(j)] != 0;
    ps.connects = p->connects();
    ps.reconnects = p->reconnects();
    ps.handshake_rejects = p->handshake_rejects();
    ps.tx_frames = p->tx_frames();
    ps.tx_bytes = p->tx_bytes();
    ps.rx_frames = p->rx_frames();
    ps.rx_bytes = p->rx_bytes();
    ps.dropped_frames = p->dropped_frames();
  }
  for (std::size_t r = 0; r < kHandshakeRejectReasons; ++r) {
    out.accept_rejects[r] = accept_rejects_[r];
  }
  out.frame_decode_failures = frame_decode_failures_;
  out.lapsed_frames = lapsed_frames_;
  out.stale_rejections = ledger_.stale;
  out.foreign_rejections = ledger_.foreign;
  out.decode_rejections = ledger_.decode;
  out.banned_suppressions = ledger_.banned;
  out.recv_pending = buffered_msgs_;
  out.rx_frames_inline = rx_frames_inline_;
  return out;
}

void TcpCluster::sever_peer(int peer) {
  if (peer < 0 || peer >= n_ || peer == id_) return;
  // The reader-role holder sees the EOF: the reactor's epoll poll between
  // runs, the leading sync() during one.
  TcpPeer* p = peers_[static_cast<std::size_t>(peer)].get();
  if (p != nullptr) p->sever();
}

void TcpCluster::publish_telemetry() {
  if (!telemetry_enabled()) return;
  std::lock_guard lk(mu_);
  MetricsRegistry& reg = metrics();
  for (int j = 0; j < n_; ++j) {
    const TcpPeer* p = peers_[static_cast<std::size_t>(j)].get();
    if (p == nullptr) continue;
    PeerTelemetry& pt = peer_telemetry_[static_cast<std::size_t>(j)];
    const std::string l =
        "node=" + std::to_string(id_) + ",peer=" + std::to_string(j);
    if (pt.tx_bytes == nullptr) {
      pt.tx_bytes = &reg.counter("net_tcp_tx_bytes_total", l);
      pt.rx_bytes = &reg.counter("net_tcp_rx_bytes_total", l);
    }
    const std::uint64_t tx = p->tx_bytes();
    const std::uint64_t rx = p->rx_bytes();
    pt.tx_bytes->add(tx - pt.published_tx);
    pt.rx_bytes->add(rx - pt.published_rx);
    pt.published_tx = tx;
    pt.published_rx = rx;
  }
  if (tel_recv_pending_ == nullptr) {
    tel_recv_pending_ = &reg.gauge("net_tcp_recv_pending",
                                   "node=" + std::to_string(id_));
  }
  tel_recv_pending_->set(static_cast<std::int64_t>(buffered_msgs_));
}

// ---------------------------------------------------------------------------
// TcpLoopback.

TcpLoopback::TcpLoopback(int n, int t, std::uint64_t seed,
                         TcpClusterOptions opts) {
  DPRBG_CHECK(n >= 1);
  // Two-phase: bind all n listen sockets first so the full roster (and
  // hence the hash every handshake checks) exists before any node does.
  std::vector<int> fds(static_cast<std::size_t>(n), -1);
  roster_.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    std::string err;
    fds[static_cast<std::size_t>(i)] = tcp_listen_socket("127.0.0.1", 0, &err);
    DPRBG_CHECK(fds[static_cast<std::size_t>(i)] >= 0);
    roster_[static_cast<std::size_t>(i)] = TcpNodeAddr{
        "127.0.0.1", tcp_local_port(fds[static_cast<std::size_t>(i)])};
  }
  nodes_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    TcpClusterOptions o = opts;
    o.listen_fd = fds[static_cast<std::size_t>(i)];
    nodes_.push_back(
        std::make_unique<TcpCluster>(i, n, t, seed, roster_, o));
  }
}

bool TcpLoopback::start() {
  // Each node's start() blocks until its own links are up, so they must
  // run concurrently (a dialer cannot finish before its listener runs).
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  threads.reserve(nodes_.size());
  for (auto& node : nodes_) {
    threads.emplace_back([&ok, &node] {
      if (node->start()) ok.fetch_add(1);
    });
  }
  for (auto& th : threads) th.join();
  return ok.load() == static_cast<int>(nodes_.size());
}

void TcpLoopback::run(std::vector<TcpCluster::Program> programs) {
  DPRBG_CHECK(programs.size() == nodes_.size());
  std::exception_ptr first_error;
  std::mutex error_mu;
  std::vector<std::thread> threads;
  threads.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    threads.emplace_back([&, i] {
      try {
        nodes_[i]->run(programs[i]);
      } catch (...) {
        std::lock_guard g(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (auto& th : threads) th.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace dprbg
