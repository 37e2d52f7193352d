// TimedIo: a NetEndpoint decorator that timestamps the round structure of
// a protocol run from outside the library.
//
// The protocols are templates over the endpoint, so wrapping the handle a
// program receives wraps every call any protocol makes. For each
// (player, stream) the wrapper records, on the shared steady clock:
//
//   * kFirstSend(r)  the first send() or send_all() of round r,
//   * kEnter(r)      entry into sync() for round r,
//   * kExit(r)       return from that sync(),
//   * kBegin / kEnd  the stream's lifetime: the benchmark marks the root
//                    stream's segment; a per-batch stream begins when its
//                    wrapper is first opened and ends when the thread that
//                    opened it exits (the pipeline runs one worker thread
//                    per batch, so that is the moment its batch is done),
//   * kCall/kReturn  the benchmark calling into and returning from a library
//                    call that drives other streams (the pipeline), during
//                    which the root stream itself has no rounds.
//
// Stamping costs one relaxed load per call while it is switched off, so the
// same wrapper serves the untimed oracle, the measured run and the traced
// run.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "net/endpoint.h"
#include "net/msg.h"
#include "rng/chacha.h"

namespace dprbg::bench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

enum class StampKind : std::uint8_t {
  kBegin,
  kCall,
  kReturn,
  kFirstSend,
  kEnter,
  kExit,
  kEnd,
};

struct Stamp {
  std::int64_t ns = 0;
  std::uint64_t round = 0;
  StampKind kind = StampKind::kBegin;
};

// All stamps of one of a player's streams, in the order they were taken.
struct Timeline {
  std::uint32_t stream = 0;
  std::vector<Stamp> stamps;
};

namespace detail {

// Runs the registered callbacks when the owning thread exits; this is how
// a per-batch stream learns that its worker thread is done.
class ThreadExitHooks {
 public:
  ThreadExitHooks() = default;
  ThreadExitHooks(const ThreadExitHooks&) = delete;
  ThreadExitHooks& operator=(const ThreadExitHooks&) = delete;
  ~ThreadExitHooks() {
    for (auto& hook : hooks_) hook();
  }
  void add(std::function<void()> hook) { hooks_.push_back(std::move(hook)); }

 private:
  std::vector<std::function<void()>> hooks_;
};

inline ThreadExitHooks& thread_exit_hooks() {
  thread_local ThreadExitHooks hooks;
  return hooks;
}

}  // namespace detail

template <NetEndpoint Io>
class TimedIo {
 public:
  // Wraps a player's root handle. `stamping` switches recording on and off
  // for the whole family of wrappers; the wrapped handle and the flag must
  // outlive this object.
  TimedIo(Io& io, const std::atomic<bool>& stamping)
      : io_(&io),
        stamping_(&stamping),
        own_family_(std::make_unique<Family>()),
        family_(own_family_.get()) {
    family_->owner = std::this_thread::get_id();
  }
  TimedIo(const TimedIo&) = delete;
  TimedIo& operator=(const TimedIo&) = delete;

  [[nodiscard]] int id() const { return io_->id(); }
  [[nodiscard]] int n() const { return io_->n(); }
  [[nodiscard]] int t() const { return io_->t(); }
  [[nodiscard]] Chacha& rng() { return io_->rng(); }
  [[nodiscard]] std::uint32_t stream() const { return io_->stream(); }
  [[nodiscard]] std::uint32_t committee() const { return io_->committee(); }

  // The wrapper of stream `batch`: created once, then the same object for
  // every caller on every thread. The wrapped instance() is called outside
  // the family lock, so a transport that locks inside instance() never
  // nests under this one.
  TimedIo& instance(std::uint32_t batch) {
    if (batch == 0 || batch == stream()) return *this;
    {
      std::lock_guard lk(family_->mu);
      const auto it = family_->children.find(batch);
      if (it != family_->children.end()) return *it->second;
    }
    Io& inner = io_->instance(batch);
    TimedIo* child = nullptr;
    {
      std::lock_guard lk(family_->mu);
      auto& slot = family_->children[batch];
      if (slot != nullptr) return *slot;
      slot.reset(new TimedIo(inner, *stamping_, family_));
      child = slot.get();
      child->stamp(StampKind::kBegin, 0);
    }
    if (std::this_thread::get_id() != family_->owner) {
      detail::thread_exit_hooks().add(
          [child] { child->stamp(StampKind::kEnd, child->rounds()); });
    }
    return *child;
  }

  void send(int to, std::uint32_t tag, std::vector<std::uint8_t> body) {
    note_send();
    io_->send(to, tag, std::move(body));
  }
  void send_all(std::uint32_t tag, const std::vector<std::uint8_t>& body) {
    note_send();
    io_->send_all(tag, body);
  }

  const Inbox& sync() {
    const std::uint64_t r = io_->rounds();
    stamp(StampKind::kEnter, r);
    const Inbox& in = io_->sync();
    stamp(StampKind::kExit, r);
    sent_this_round_ = false;
    return in;
  }
  [[nodiscard]] const Inbox& inbox() const { return io_->inbox(); }

  void note_decode_failure(int from) { io_->note_decode_failure(from); }

  [[nodiscard]] const CommCounters& sent() const { return io_->sent(); }
  [[nodiscard]] std::uint64_t rounds() const { return io_->rounds(); }

  // Comm ledger of this stream plus every child stream opened so far. Call
  // only from the owning thread while no child stream is being driven.
  [[nodiscard]] CommCounters family_sent() const {
    CommCounters c = sent();
    std::lock_guard lk(family_->mu);
    for (const auto& [batch, child] : family_->children) c += child->sent();
    return c;
  }

  // Benchmark-side marks on this stream (kBegin, kCall, kReturn, kEnd).
  void mark(StampKind kind) { stamp(kind, rounds()); }

  // Time of the most recent first send on this stream while stamping.
  [[nodiscard]] std::int64_t last_first_send_ns() const {
    return last_first_send_ns_;
  }

  // Moves out the stamps of this stream and of every child stream. Call
  // only once every thread that drove a child has been joined.
  std::vector<Timeline> take_timelines() {
    std::vector<Timeline> out;
    out.push_back(Timeline{stream(), std::move(stamps_)});
    std::lock_guard lk(family_->mu);
    for (auto& [batch, child] : family_->children) {
      out.push_back(Timeline{batch, std::move(child->stamps_)});
    }
    return out;
  }

 private:
  struct Family {
    std::mutex mu;
    std::map<std::uint32_t, std::unique_ptr<TimedIo>> children;
    std::thread::id owner;
  };

  TimedIo(Io& io, const std::atomic<bool>& stamping, Family* family)
      : io_(&io), stamping_(&stamping), family_(family) {}

  void note_send() {
    if (sent_this_round_) return;
    sent_this_round_ = true;
    if (stamp(StampKind::kFirstSend, io_->rounds())) {
      last_first_send_ns_ = stamps_.back().ns;
    }
  }

  bool stamp(StampKind kind, std::uint64_t round) {
    if (!stamping_->load(std::memory_order_relaxed)) return false;
    stamps_.push_back(Stamp{now_ns(), round, kind});
    return true;
  }

  Io* io_;
  const std::atomic<bool>* stamping_;
  // The root wrapper owns the family, and the family owns the children.
  std::unique_ptr<Family> own_family_;
  Family* family_;
  std::vector<Stamp> stamps_;  // written only by the thread driving the stream
  bool sent_this_round_ = false;
  std::int64_t last_first_send_ns_ = 0;
};

}  // namespace dprbg::bench
