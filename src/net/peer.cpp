#include "net/peer.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <utility>

namespace dprbg {
namespace {

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

// Frames up to this size are read without growing the buffer; a larger
// announced frame grows it, and it stays at its high-water mark (at most
// one kTcpMaxFrameBytes frame) so a stream of large frames reallocates
// nothing on whichever thread holds the reader role.
constexpr std::size_t kReadFloorBytes = 4096;
// Frames gathered into one sendmsg() when draining the out-queue.
constexpr std::size_t kMaxGather = 64;

}  // namespace

bool tcp_resolve(const std::string& host, std::uint16_t port,
                 sockaddr_in* out) {
  std::memset(out, 0, sizeof(*out));
  out->sin_family = AF_INET;
  out->sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &out->sin_addr) == 1) return true;
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  if (::getaddrinfo(host.c_str(), nullptr, &hints, &res) != 0 ||
      res == nullptr) {
    return false;
  }
  out->sin_addr = reinterpret_cast<sockaddr_in*>(res->ai_addr)->sin_addr;
  ::freeaddrinfo(res);
  return true;
}

int tcp_listen_socket(const std::string& host, std::uint16_t port,
                      std::string* err) {
  sockaddr_in addr{};
  if (!tcp_resolve(host, port, &addr)) {
    if (err != nullptr) *err = "cannot resolve " + host;
    return -1;
  }
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    if (err != nullptr) *err = "socket: " + std::string(::strerror(errno));
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (err != nullptr) *err = "bind: " + std::string(::strerror(errno));
    ::close(fd);
    return -1;
  }
  if (::listen(fd, 64) != 0) {
    if (err != nullptr) *err = "listen: " + std::string(::strerror(errno));
    ::close(fd);
    return -1;
  }
  return fd;
}

std::uint16_t tcp_local_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return 0;
  }
  return ntohs(addr.sin_port);
}

int tcp_accept(int listen_fd) {
  for (;;) {
    const int fd =
        ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd >= 0) {
      set_nodelay(fd);
      return fd;
    }
    if (errno != EINTR && errno != ECONNABORTED) return -1;
  }
}

int tcp_dial(const sockaddr_in& addr, bool* done) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  set_nodelay(fd);
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    return -1;
  }
  *done = rc == 0;
  return fd;
}

bool tcp_connect_result(int fd) {
  int soerr = 0;
  socklen_t len = sizeof(soerr);
  return ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &len) == 0 &&
         soerr == 0;
}

int tcp_connect_socket(const std::string& host, std::uint16_t port,
                       unsigned timeout_ms) {
  sockaddr_in addr{};
  if (!tcp_resolve(host, port, &addr)) return -1;
  bool done = false;
  const int fd = tcp_dial(addr, &done);
  if (fd < 0) return -1;
  if (!done) {
    pollfd p{fd, POLLOUT, 0};
    int rc;
    do {
      rc = ::poll(&p, 1, static_cast<int>(timeout_ms));
    } while (rc < 0 && errno == EINTR);
    if (rc <= 0 || !tcp_connect_result(fd)) {
      ::close(fd);
      return -1;
    }
  }
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
  return fd;
}

bool tcp_write_all(int fd, std::span<const std::uint8_t> data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

// ---------------------------------------------------------------------------
// FrameReader.

FrameReader::Fill FrameReader::fill(int fd) {
  if (head_ == tail_) {
    head_ = tail_ = 0;
  } else if (head_ > 0) {
    std::memmove(buf_.data(), buf_.data() + head_, tail_ - head_);
    tail_ -= head_;
    head_ = 0;
  }
  const std::size_t need = std::max(kReadFloorBytes, want_);
  if (buf_.size() < need) buf_.resize(need);
  for (;;) {
    const ssize_t n = ::recv(fd, buf_.data() + tail_, buf_.size() - tail_, 0);
    if (n > 0) {
      tail_ += static_cast<std::size_t>(n);
      return Fill::kData;
    }
    if (n == 0) return Fill::kClosed;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return Fill::kAgain;
    return Fill::kClosed;
  }
}

FrameReader::Next FrameReader::next(std::size_t max_frame, FrameType* type,
                                    std::span<const std::uint8_t>* payload) {
  const std::size_t have = tail_ - head_;
  if (have < kTcpFramePrefixBytes) return Next::kPartial;
  const std::uint8_t* p = buf_.data() + head_;
  const std::uint32_t len = static_cast<std::uint32_t>(p[0]) |
                            (static_cast<std::uint32_t>(p[1]) << 8) |
                            (static_cast<std::uint32_t>(p[2]) << 16) |
                            (static_cast<std::uint32_t>(p[3]) << 24);
  // `len` counts the type byte; the payload is len - 1 bytes. Length 0
  // (no type byte) is malformed; an over-limit length is rejected before
  // the buffer grows for it.
  if (len == 0 || len > max_frame + 1) return Next::kTooBig;
  const std::size_t total = kTcpFramePrefixBytes - 1 + len;
  if (have < total) {
    want_ = total;
    return Next::kPartial;
  }
  want_ = 0;
  *type = static_cast<FrameType>(p[4]);
  *payload = std::span<const std::uint8_t>(p + kTcpFramePrefixBytes,
                                           total - kTcpFramePrefixBytes);
  head_ += total;
  return Next::kFrame;
}

// ---------------------------------------------------------------------------
// TcpPeer.

bool TcpPeer::send(std::vector<std::uint8_t> frame) {
  std::lock_guard lk(mu_);
  if (fd_ < 0) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const bool was_idle = queue_.empty();
  queue_.push_back(std::move(frame));
  if (was_idle) write_queue_locked();
  return was_idle && !queue_.empty();
}

void TcpPeer::drain() {
  std::lock_guard lk(mu_);
  if (fd_ >= 0) write_queue_locked();
}

int TcpPeer::backlog_fd() const {
  std::lock_guard lk(mu_);
  return queue_.empty() ? -1 : fd_;
}

void TcpPeer::write_queue_locked() {
  while (!queue_.empty()) {
    iovec iov[kMaxGather];
    std::size_t count = 0;
    for (auto it = queue_.begin(); it != queue_.end() && count < kMaxGather;
         ++it, ++count) {
      const std::size_t off = count == 0 ? front_off_ : 0;
      iov[count].iov_base = it->data() + off;
      iov[count].iov_len = it->size() - off;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = count;
    const ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      // The reader-role holder observes the shutdown and runs the
      // teardown (which owns the down notification). The queue goes now,
      // so the reactor stops polling a dead socket for POLLOUT.
      ::shutdown(fd_, SHUT_RDWR);
      dropped_.fetch_add(queue_.size(), std::memory_order_relaxed);
      queue_.clear();
      front_off_ = 0;
      return;
    }
    auto left = static_cast<std::size_t>(n);
    while (left > 0) {
      const std::size_t rest = queue_.front().size() - front_off_;
      if (left < rest) {
        front_off_ += left;
        return;  // the socket took less than offered: it is full
      }
      left -= rest;
      tx_frames_.fetch_add(1, std::memory_order_relaxed);
      tx_bytes_.fetch_add(queue_.front().size(), std::memory_order_relaxed);
      queue_.pop_front();
      front_off_ = 0;
    }
  }
}

void TcpPeer::install(int fd) {
  {
    std::lock_guard lk(mu_);
    fd_ = fd;
  }
  connects_.fetch_add(1);
  up_.store(true, std::memory_order_release);
}

bool TcpPeer::close() {
  const bool was_up = up_.exchange(false, std::memory_order_acq_rel);
  std::lock_guard lk(mu_);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  // Lockstep semantics: frames queued for a dead peer are garbage (the
  // peer, if it ever comes back, restarts its protocol state).
  dropped_.fetch_add(queue_.size(), std::memory_order_relaxed);
  queue_.clear();
  front_off_ = 0;
  return was_up;
}

void TcpPeer::sever() {
  std::lock_guard lk(mu_);
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

}  // namespace dprbg
