// Time attribution and percentile rules for the socket benchmark. Pure
// functions over recorded data, so the unit tests can drive them with
// synthetic stamps and spans.

#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "timed_io.h"

namespace dprbg::bench {

// The nearest-rank q-quantile (0 < q < 1) of `samples`, or nullopt when
// fewer than 10 samples lie beyond it: a tail percentile is reported only
// where the sample supports it.
std::optional<double> percentile(std::vector<double> samples, double q);

// One closed TraceSpan of the stream being attributed: "protocol.phase",
// its round range [r0, r1) and the tracer's sequence number at close.
struct SpanRec {
  std::string name;
  std::uint64_t r0 = 0;
  std::uint64_t r1 = 0;
  std::uint64_t seq = 0;
};

// Time charged on one (player, stream), in nanoseconds, per span name.
// Rounds that no span covers, and time outside every round, are charged
// to "driver".
struct StreamCharges {
  std::map<std::string, std::int64_t> self_ns;  // compute
  std::map<std::string, std::int64_t> wait_ns;  // blocked
  std::int64_t sync_wait_ns = 0;  // the part of wait_ns spent in sync()
  std::int64_t charged_ns = 0;
  std::int64_t wall_ns = 0;  // last kEnd - first kBegin
};

inline constexpr const char* kDriver = "driver";

// Charges every interval between consecutive stamps of one stream:
//   * ... -> kExit(r)                     wait of round r,
//   * kExit(r) -> ...                     post-processing of round r,
//   * ... -> kFirstSend(r) / kEnter(r)    pre-send compute of round r,
//   * kCall -> kReturn                    driver wait (the stream is parked
//                                         while the call drives others),
//   * anything else                       driver compute.
// Wait and post-processing go to the innermost span covering round r
// (r0 <= r < r1). Pre-send compute goes to the span that made round r's
// first send, when `first_send_seq` knows that send's tracer sequence
// number: the earliest-closing span after it whose range includes r, which
// picks up zero-round spans such as a dealer's send phase. Otherwise it
// falls back to the span covering r.
StreamCharges attribute_stream(
    std::span<const Stamp> stamps, std::vector<SpanRec> spans,
    const std::map<std::uint64_t, std::uint64_t>& first_send_seq);

// |charged - wall| / wall; 0 for a stream with no wall time.
double attribution_error(std::int64_t charged_ns, std::int64_t wall_ns);

}  // namespace dprbg::bench
