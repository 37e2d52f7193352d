// BeaconStatus: the beacon's machine-readable health endpoint.
//
// A beacon-as-a-service deployment (ROADMAP) needs one aggregate a load
// balancer or operator dashboard can poll: how many committees are live,
// who was evicted and why, how deep the seed pool is, and whether the
// output stream is currently degraded. This header distills the
// HealthBoard's ledger (beacon/beacon_failover.h) plus the telemetry
// pool gauge into that aggregate, serialized as one flat JSON line (the
// same tolerant conventions as the trace and metrics snapshots —
// common/flat_json.h).
//
// The status is a point-in-time read: it is safe to build mid-run (the
// HealthBoard accessors lock internally), which is exactly how a serving
// loop would poll it.

#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/flat_json.h"
#include "common/telemetry.h"
#include "beacon/beacon_failover.h"

namespace dprbg {

struct BeaconStatus {
  struct CommitteeStatus {
    unsigned id = 0;
    CommitteeHealth health = CommitteeHealth::kLive;
    EvictionReason reason = EvictionReason::kNone;
    unsigned batches_done = 0;
    unsigned evicted_at = 0;  // meaningful only when evicted
  };

  unsigned committees = 0;
  unsigned live = 0;
  unsigned lagging = 0;
  unsigned evicted = 0;
  unsigned batches = 0;  // scheduled batches per committee
  // Any committee out of the live state, or any window emitted short.
  bool degraded = false;
  HealthCounters counters;
  // The pool_depth telemetry gauge at snapshot time; -1 when telemetry
  // is disabled (no pool is being watched).
  std::int64_t pool_depth = -1;
  // Output rate, filled in by the serving loop that measured it (the
  // status itself has no clock); 0 = unknown.
  double coins_per_sec = 0.0;
  std::vector<CommitteeStatus> per_committee;

  // One flat JSON object: scalar summary fields plus a compact
  // "committees" detail string ("0:live done=8;1:evicted(crashed)@2
  // done=2"), keeping the line nesting-free.
  [[nodiscard]] std::string to_json() const {
    std::string detail;
    for (const auto& c : per_committee) {
      if (!detail.empty()) detail += ';';
      detail += std::to_string(c.id);
      detail += ':';
      detail += to_string(c.health);
      if (c.health == CommitteeHealth::kEvicted) {
        detail += '(';
        detail += to_string(c.reason);
        detail += ")@";
        detail += std::to_string(c.evicted_at);
      }
      detail += " done=";
      detail += std::to_string(c.batches_done);
    }
    char rate[32];
    std::snprintf(rate, sizeof(rate), "%.2f", coins_per_sec);

    std::string out;
    out.reserve(256);
    out += "{\"kind\":\"beacon_status\"";
    auto num = [&out](const char* key, std::int64_t v) {
      out += ",\"";
      out += key;
      out += "\":";
      out += std::to_string(v);
    };
    num("committees", committees);
    num("live", live);
    num("lagging", lagging);
    num("evicted", evicted);
    num("batches", batches);
    num("degraded", degraded ? 1 : 0);
    num("pool_depth", pool_depth);
    num("evictions", static_cast<std::int64_t>(counters.evictions));
    num("lagging_transitions",
        static_cast<std::int64_t>(counters.lagging_transitions));
    num("cancelled_batches",
        static_cast<std::int64_t>(counters.cancelled_batches));
    num("degraded_windows",
        static_cast<std::int64_t>(counters.degraded_windows));
    out += ",\"coins_per_sec\":\"";
    out += rate;
    out += "\",\"detail\":\"";
    flat_json_escape(out, detail);
    out += "\"}";
    return out;
  }
};

// Builds the status from a (possibly mid-run) HealthBoard. Thread-safe:
// every board accessor locks internally; the pool gauge is read only
// when telemetry is enabled.
[[nodiscard]] inline BeaconStatus beacon_status(const HealthBoard& board) {
  BeaconStatus st;
  st.committees = board.committees();
  st.batches = board.batches();
  st.counters = board.counters();
  st.per_committee.reserve(st.committees);
  for (unsigned c = 0; c < st.committees; ++c) {
    BeaconStatus::CommitteeStatus cs;
    cs.id = c;
    cs.health = board.health(c);
    cs.reason = board.reason(c);
    cs.batches_done = board.batches_done(c);
    cs.evicted_at = board.evicted_at(c);
    switch (cs.health) {
      case CommitteeHealth::kLive: ++st.live; break;
      case CommitteeHealth::kLagging: ++st.lagging; break;
      case CommitteeHealth::kEvicted: ++st.evicted; break;
    }
    st.per_committee.push_back(cs);
  }
  st.degraded = st.live < st.committees || st.counters.degraded_windows != 0;
  if (telemetry_enabled()) {
    st.pool_depth = metrics().gauge("pool_depth").value();
  }
  return st;
}

}  // namespace dprbg
