// One remote node of the TCP transport: the connection state the
// cluster's reactor drives, the per-connection frame reader, and the
// non-blocking send path with its ordered out-queue.
//
// Roles are deterministic by index (the classic MPC party-loop shape):
// between players i < j it is always j that dials and i that listens, so
// every pair establishes exactly one connection and a restarted process
// knows which direction to re-establish without negotiation. A
// `TcpPeer` is therefore either a dialer (remote id < local id: the
// reactor dials, handshakes Hello -> HelloAck, and redials with capped
// exponential backoff whenever the connection dies) or a listener
// (remote id > local id: the reactor's accept path runs the listener
// half of the handshake and installs the socket here).
//
// Thread model: a TcpPeer owns no thread, and its state has three
// owners. The reactor alone dials, handshakes and drains the out-queue
// (`rs`). Reading the up connection and tearing it down (`rd`) belongs to
// whichever thread holds the cluster's reader role: the reactor outside
// a run, the leading sync() caller inside one (see tcp_cluster.h). Any
// thread may call send() (protocol threads write their round frames
// directly) and sever(). The installed socket and the out-queue are
// guarded by the peer's mutex, and only the reader-role holder closes
// the socket, so a writer never sends on a reused descriptor.
//
// Sending never blocks: send() writes what the socket takes right now
// and appends the rest to the out-queue, which the reactor drains on
// POLLOUT, so frame order holds and two large writers cannot deadlock.
// While the peer is down, frames are dropped and counted — lockstep
// semantics treat a disconnected peer as crashed, so there is nothing
// useful to buffer (a reconnected process restarts its protocol state
// anyway; see DESIGN.md §16).

#pragma once

#include <netinet/in.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "net/framing.h"

namespace dprbg {

// --------------------------------------------------------------------------
// Small POSIX socket helpers shared by the reactor, dprbg_node, and the
// tests' raw-socket probes. All of them are EINTR-safe and never throw.

// Creates a bound, listening, non-blocking TCP socket (SO_REUSEADDR).
// Returns -1 and fills `err` on failure. `port` 0 binds an ephemeral
// port — read it back with tcp_local_port.
int tcp_listen_socket(const std::string& host, std::uint16_t port,
                      std::string* err);
std::uint16_t tcp_local_port(int fd);

// Accepts one pending connection as a non-blocking TCP_NODELAY socket;
// -1 when none is pending.
int tcp_accept(int listen_fd);

// Resolves `host` (numeric or name) into an IPv4 address. The transport
// is IPv4-only: the roster format is host:port and every deployment
// target uses 127.0.0.1 or a numeric LAN address.
bool tcp_resolve(const std::string& host, std::uint16_t port,
                 sockaddr_in* out);

// Starts a non-blocking connect (TCP_NODELAY set). Returns the socket, or
// -1; `*done` tells whether the connect already completed — otherwise
// wait for POLLOUT and check tcp_connect_result.
int tcp_dial(const sockaddr_in& addr, bool* done);
bool tcp_connect_result(int fd);

// Blocking connect with a timeout. Returns the connected fd, or -1.
int tcp_connect_socket(const std::string& host, std::uint16_t port,
                       unsigned timeout_ms);

// Writes the whole buffer; false on any error. On a non-blocking socket
// a buffer the kernel will not take at once also fails — only used for
// handshake frames on a fresh connection and by blocking test probes.
bool tcp_write_all(int fd, std::span<const std::uint8_t> data);

// --------------------------------------------------------------------------

// One connection's inbound byte stream, cut into frames. The buffer
// starts at a small floor for the common case, grows when a larger frame
// is announced, and keeps its high-water size for the connection's life.
class FrameReader {
 public:
  enum class Fill : std::uint8_t { kData, kAgain, kClosed };
  enum class Next : std::uint8_t { kFrame, kPartial, kTooBig };

  // One recv() into the free space (non-blocking socket).
  Fill fill(int fd);

  // Cuts the next complete frame. `payload` stays valid until the next
  // fill(). kTooBig: the declared length is zero or exceeds `max_frame`
  // (checked before anything is allocated for it).
  Next next(std::size_t max_frame, FrameType* type,
            std::span<const std::uint8_t>* payload);

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t head_ = 0;  // first unconsumed byte
  std::size_t tail_ = 0;  // one past the last received byte
  std::size_t want_ = 0;  // total size of the frame at head_, once known
};

class TcpPeer {
 public:
  using Clock = std::chrono::steady_clock;

  TcpPeer(int remote_id, const sockaddr_in& addr, bool dialer)
      : remote_id_(remote_id), addr_(addr), dialer_(dialer) {}
  ~TcpPeer() { close(); }
  TcpPeer(const TcpPeer&) = delete;
  TcpPeer& operator=(const TcpPeer&) = delete;

  [[nodiscard]] int remote_id() const { return remote_id_; }
  [[nodiscard]] const sockaddr_in& addr() const { return addr_; }
  [[nodiscard]] bool dialer() const { return dialer_; }

  // Ships one framed byte string. Returns true when the frame was left
  // (partly) queued behind a busy socket, so the reactor must be woken to
  // drain it; false when it went out whole or was dropped (peer down).
  bool send(std::vector<std::uint8_t> frame);

  // Reactor: writes queued frames until the socket would block.
  void drain();
  // The installed socket while frames wait in the out-queue, else -1
  // (what the reactor polls for POLLOUT).
  [[nodiscard]] int backlog_fd() const;

  // Reader role: installs a fully handshaken socket (the peer is up).
  void install(int fd);
  // Reader role: closes the socket and drops the out-queue. Returns
  // whether the peer was up.
  bool close();

  // Cuts the live connection (shutdown only — the reader-role holder
  // observes the EOF and runs the teardown). A dialer redials; a listener
  // waits for a fresh accept.
  void sever();

  [[nodiscard]] bool up() const {
    return up_.load(std::memory_order_acquire);
  }

  // Lifecycle / traffic counters (monotonic, lock-free reads). A frame
  // counts as transmitted once its last byte is in the socket, so after
  // a clean run one node's tx to a peer equals that peer's rx from it.
  [[nodiscard]] std::uint64_t connects() const { return connects_.load(); }
  [[nodiscard]] std::uint64_t reconnects() const {
    const std::uint64_t c = connects_.load();
    return c > 0 ? c - 1 : 0;
  }
  [[nodiscard]] std::uint64_t handshake_rejects() const {
    return rejects_.load();
  }
  [[nodiscard]] std::uint64_t tx_frames() const { return tx_frames_.load(); }
  [[nodiscard]] std::uint64_t tx_bytes() const { return tx_bytes_.load(); }
  [[nodiscard]] std::uint64_t rx_frames() const { return rx_frames_.load(); }
  [[nodiscard]] std::uint64_t rx_bytes() const { return rx_bytes_.load(); }
  [[nodiscard]] std::uint64_t dropped_frames() const {
    return dropped_.load();
  }

  void note_reject() { rejects_.fetch_add(1, std::memory_order_relaxed); }
  void note_rx(std::size_t bytes) {
    rx_frames_.fetch_add(1, std::memory_order_relaxed);
    rx_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }

  // Reactor-owned dial state; no other thread touches it. `link` is the
  // progress of a dial in flight: kIdle once the peer is up, and while a
  // dialer waits for `deadline` (or a listener for an accept).
  enum class Link : std::uint8_t {
    kIdle,
    kConnecting,   // dialer: non-blocking connect in flight
    kHandshaking,  // dialer: Hello sent, awaiting the HelloAck
  };
  struct ReactorState {
    Link link = Link::kIdle;
    int fd = -1;  // the dialing socket
    Clock::time_point deadline{};
    unsigned backoff_ms = 0;
    FrameReader reader;  // handshake bytes, handed to `rd` once up
  };
  ReactorState rs;

  // The up connection's read side, touched only by the holder of the
  // cluster's reader role. `fd` mirrors the installed socket; -1 while
  // down.
  struct ReadState {
    int fd = -1;
    FrameReader reader;
  };
  ReadState rd;

 private:
  // With mu_ held: writes queued frames (gathered) until the socket would
  // block; on a write error, drops the queue (the peer is gone) and shuts
  // the socket down so the reader-role holder tears the connection down.
  void write_queue_locked();

  const int remote_id_;
  const sockaddr_in addr_;
  const bool dialer_;

  mutable std::mutex mu_;
  int fd_ = -1;  // the installed socket; -1 while down
  std::deque<std::vector<std::uint8_t>> queue_;
  std::size_t front_off_ = 0;  // bytes of queue_.front() already written

  std::atomic<bool> up_{false};
  std::atomic<std::uint64_t> connects_{0};
  std::atomic<std::uint64_t> rejects_{0};
  std::atomic<std::uint64_t> tx_frames_{0};
  std::atomic<std::uint64_t> tx_bytes_{0};
  std::atomic<std::uint64_t> rx_frames_{0};
  std::atomic<std::uint64_t> rx_bytes_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

}  // namespace dprbg
