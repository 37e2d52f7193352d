// Instrumentation counters for reproducing the paper's cost accounting.
//
// The paper (Section 2) measures computation in "number of additions" of
// k-bit field elements, and communication in messages and bits. The field
// layer bumps the thread-local `FieldCounters` on every arithmetic
// operation; the network layer aggregates per-player message/byte counts.
// `MetricsScope` captures deltas RAII-style so benchmarks can report the
// cost of exactly one protocol phase.

#pragma once

#include <cstdint>
#include <string>

namespace dprbg {

// Per-thread field-arithmetic counters. Every player in the synchronous
// cluster runs on its own thread, so these counters are naturally
// per-player during a protocol run.
struct FieldCounters {
  std::uint64_t adds = 0;        // field additions/subtractions
  std::uint64_t muls = 0;        // field multiplications
  std::uint64_t invs = 0;        // field inversions/divisions
  std::uint64_t interpolations = 0;  // full polynomial interpolations

  FieldCounters& operator+=(const FieldCounters& o) noexcept {
    adds += o.adds;
    muls += o.muls;
    invs += o.invs;
    interpolations += o.interpolations;
    return *this;
  }
  FieldCounters operator-(const FieldCounters& o) const noexcept {
    return {adds - o.adds, muls - o.muls, invs - o.invs,
            interpolations - o.interpolations};
  }
};

namespace metrics_detail {
// The calling thread's counters. constinit (zero, no dynamic
// initializer) lets every translation unit address the variable directly,
// without the thread_local init wrapper call.
inline constinit thread_local FieldCounters tls_field_counters{};
}  // namespace metrics_detail

// Access the calling thread's counters.
inline FieldCounters& field_counters() noexcept {
  return metrics_detail::tls_field_counters;
}

// Convenience hooks used by the field implementations: each is inline and
// compiles to a single thread-local increment.
inline void count_add() noexcept { ++field_counters().adds; }
inline void count_mul() noexcept { ++field_counters().muls; }
inline void count_inv() noexcept { ++field_counters().invs; }
inline void count_interpolation() noexcept {
  ++field_counters().interpolations;
}

// RAII capture of this thread's field-counter delta.
class MetricsScope {
 public:
  MetricsScope() noexcept : start_(field_counters()) {}
  MetricsScope(const MetricsScope&) = delete;
  MetricsScope& operator=(const MetricsScope&) = delete;

  [[nodiscard]] FieldCounters delta() const noexcept {
    return field_counters() - start_;
  }

 private:
  FieldCounters start_;
};

// Communication totals, filled in by net::Cluster.
struct CommCounters {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t rounds = 0;

  CommCounters& operator+=(const CommCounters& o) noexcept {
    messages += o.messages;
    bytes += o.bytes;
    rounds += o.rounds;
    return *this;
  }
  CommCounters operator-(const CommCounters& o) const noexcept {
    return {messages - o.messages, bytes - o.bytes, rounds - o.rounds};
  }
};

// Link-fault totals, filled in by net::Cluster when a FaultInjector
// (net/fault.h) is installed. All-zero in a fault-free run; each counter
// is per affected message (a message both corrupted and delayed bumps
// both `corrupted` and `delayed`).
struct FaultCounters {
  std::uint64_t dropped = 0;
  std::uint64_t delayed = 0;
  std::uint64_t duplicated = 0;  // extra copies created
  std::uint64_t corrupted = 0;

  [[nodiscard]] std::uint64_t total() const noexcept {
    return dropped + delayed + duplicated + corrupted;
  }
  FaultCounters& operator+=(const FaultCounters& o) noexcept {
    dropped += o.dropped;
    delayed += o.delayed;
    duplicated += o.duplicated;
    corrupted += o.corrupted;
    return *this;
  }
  FaultCounters operator-(const FaultCounters& o) const noexcept {
    return {dropped - o.dropped, delayed - o.delayed,
            duplicated - o.duplicated, corrupted - o.corrupted};
  }
};

// Human-readable one-line summaries for harness output.
std::string to_string(const FieldCounters& c);
std::string to_string(const CommCounters& c);
std::string to_string(const FaultCounters& c);

}  // namespace dprbg
