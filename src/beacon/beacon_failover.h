// Committee failover and epoch reconfiguration for the sharded beacon.
//
// The beacon's XOR-combine (beacon.h, DESIGN.md §11) is sound as long as
// at least one contributing committee stays honest-majority — which means
// a crashed, stalled, or rotten committee need not stop the beacon; it
// only needs to be REMOVED from the combination. This header supplies the
// machinery:
//
//   * HealthBoard — the shared per-committee health ledger
//     (live/lagging/evicted) with LATCHED launch and exposure gates. The
//     latch is the correctness crux: an eviction verdict consulted
//     mid-run must be identical at every member of a committee, or the
//     per-batch roster barriers deadlock (some members launch batch b,
//     others don't, and both camps park forever). The first member to
//     consult gate (c, b) fixes the verdict; everyone after reads the
//     latch.
//   * BudgetMonitor — a wall-clock watchdog derived from the Lemma 8
//     round budgets: a committee that has not completed a batch within
//     its budget is marked lagging, and at a multiple of the budget it is
//     evicted as crashed (no batch ever finished) or stalled. Off by
//     default (wall_budget_ms = 0) so deterministic tests never flake.
//   * Misbehavior eviction — no scorer of its own: a committee is evicted
//     at a launch gate when more than t of its members are banned by the
//     cluster's per-peer MisbehaviorManager (net/misbehavior.h), exactly
//     where the paper's fault bound stops guaranteeing its coins.
//   * Full-drop combine rule: an evicted committee contributes NOTHING
//     to the combination — not even batches it completed before
//     eviction. This makes the degraded output a pure function of the
//     surviving committee set (tests/beacon_failover_test.cpp pins
//     "evict c" == "run from scratch without c"), at the cost of
//     discarding a prefix of good coins. A hard floor of min_live
//     committees can never be evicted.
//   * EpochBridge — roster rotation: a bridge committee over the union
//     of an old and a new roster runs cross_roster_reshare
//     (dprbg/proactive.h) to migrate a sealed CoinPool from the retiring
//     roster to its replacement without exposing any coin, preserving
//     pool order and consumed() so the exposure instance counters stay
//     aligned across the epoch boundary.

#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "gf/field_concept.h"
#include "net/cluster.h"
#include "net/committee.h"
#include "coin/sealed_coin.h"
#include "dprbg/coin_pool.h"
#include "dprbg/proactive.h"

namespace dprbg {

enum class CommitteeHealth : std::uint8_t { kLive, kLagging, kEvicted };

enum class EvictionReason : std::uint8_t {
  kNone,         // not evicted
  kStalled,      // wall-clock budget exceeded after partial progress
  kCrashed,      // no batch ever completed
  kMisbehavior,  // more than t members banned by the misbehavior manager
  kScripted,     // test/chaos-injected eviction
};

inline const char* to_string(CommitteeHealth h) {
  switch (h) {
    case CommitteeHealth::kLive: return "live";
    case CommitteeHealth::kLagging: return "lagging";
    case CommitteeHealth::kEvicted: return "evicted";
  }
  return "?";
}

inline const char* to_string(EvictionReason r) {
  switch (r) {
    case EvictionReason::kNone: return "none";
    case EvictionReason::kStalled: return "stalled";
    case EvictionReason::kCrashed: return "crashed";
    case EvictionReason::kMisbehavior: return "misbehavior";
    case EvictionReason::kScripted: return "scripted";
  }
  return "?";
}

struct FailoverPolicy {
  // Hard floor: the board refuses to evict below this many non-evicted
  // committees, so the beacon never goes silent.
  unsigned min_live = 1;
  // A committee idle for lagging_after (resp. evict_after) times its
  // wall budget is marked lagging (resp. evicted).
  double lagging_after = 1.0;
  double evict_after = 2.0;
  // Wall-clock budget per batch, in ms. 0 = wall-clock monitoring off
  // (the default: deterministic tests must never flake on timing).
  unsigned wall_budget_ms = 0;
  // Monitor poll interval.
  unsigned poll_ms = 5;

  // Budget heuristic: one batch's lockstep rounds at the simulated
  // latency, times a slack factor, floored so fast clusters are not
  // evicted on scheduler jitter.
  [[nodiscard]] unsigned derive_wall_budget_ms(unsigned round_latency_us,
                                               double slack = 4.0,
                                               unsigned floor_ms = 50) const {
    // Expected lockstep rounds per Coin-Gen batch (Lemma 8: ~10 at t=1,
    // plus slack for the exposure rounds).
    constexpr double kRoundsPerBatch = 12.0;
    const double ms =
        kRoundsPerBatch *
        (static_cast<double>(round_latency_us) / 1000.0) * slack;
    return ms > static_cast<double>(floor_ms) ? static_cast<unsigned>(ms)
                                              : floor_ms;
  }
};

// Beacon failover totals for one run, kept by the HealthBoard: committee
// health transitions and degraded-mode output accounting.
struct HealthCounters {
  std::uint64_t lagging_transitions = 0;  // live -> lagging flips
  std::uint64_t evictions = 0;            // committees dropped for good
  std::uint64_t cancelled_batches = 0;    // launch gates closed
  std::uint64_t degraded_windows = 0;     // emitted windows missing a live
                                          // committee's contribution
};

// Chaos knobs for tests and the liveness benchmark (bench/beacon
// --crash-committee): scripted failures injected above the transport.
struct BeaconChaos {
  // Committee whose members exit their program at crash_at_batch without
  // running or exposing anything further (-1 = none). Detected either by
  // the wall-clock monitor or by the combine-time crash fallback.
  int crash_committee = -1;
  unsigned crash_at_batch = 0;
  // (committee, batch) pairs: evict the committee just before it would
  // launch the given batch, reason kScripted.
  std::vector<std::pair<unsigned, unsigned>> scripted_evictions;
};

// The shared health ledger: one per beacon run, consulted concurrently
// by every member thread (launch/exposure gates), the wall-clock monitor
// and the combine step. All state is guarded by one mutex; gates are
// latched (see header comment) so concurrent readers of the same gate
// always agree.
class HealthBoard {
 public:
  using Clock = std::chrono::steady_clock;

  HealthBoard(unsigned committees, unsigned batches, FailoverPolicy policy)
      : policy_(policy), batches_(batches) {
    DPRBG_CHECK(committees >= 1);
    DPRBG_CHECK(policy_.min_live >= 1);
    states_.resize(committees);
    const auto now = Clock::now();
    for (auto& s : states_) s.last_progress = now;
    // Seed the health gauges so a snapshot taken before any transition
    // already lists every committee as live.
    for (unsigned c = 0; c < committees; ++c) {
      tel_health(c, CommitteeHealth::kLive);
    }
  }

  HealthBoard(const HealthBoard&) = delete;
  HealthBoard& operator=(const HealthBoard&) = delete;

  // Launch gate for batch b of committee c. Latched: the first caller
  // fixes the verdict and every later caller — other members, any order
  // — reads the latch. `over_fault_bound` (more than t members banned)
  // is read only by that first caller, which evicts the committee for
  // misbehavior, so members that see the bans land at different times
  // still agree.
  [[nodiscard]] bool may_launch(unsigned c, unsigned b,
                                bool over_fault_bound) {
    std::lock_guard lk(mu_);
    State& s = state(c);
    if (auto it = s.gates.find(b); it != s.gates.end()) return it->second;
    if (over_fault_bound && s.health != CommitteeHealth::kEvicted) {
      evict_locked(s, c, b, EvictionReason::kMisbehavior);
    }
    const bool open =
        s.health != CommitteeHealth::kEvicted || b < s.evicted_at;
    if (!open) {
      ++counters_.cancelled_batches;
      if (telemetry_enabled()) {
        metrics().counter("beacon_cancelled_batches_total").add(1);
      }
    }
    s.gates.emplace(b, open);
    return open;
  }

  // The verdict batch b got, or false if its gate was never consulted.
  [[nodiscard]] bool launched(unsigned c, unsigned b) const {
    std::lock_guard lk(mu_);
    const State& s = state(c);
    const auto it = s.gates.find(b);
    return it != s.gates.end() && it->second;
  }

  // Exposure gate: consulted once per member before the committee's
  // exposure phase; latched on first consult for the same reason as the
  // launch gates (exposure runs on the committee's root stream).
  [[nodiscard]] bool may_expose(unsigned c) {
    std::lock_guard lk(mu_);
    State& s = state(c);
    if (s.expose.has_value()) return *s.expose;
    const bool ok = s.health != CommitteeHealth::kEvicted;
    s.expose = ok;
    return ok;
  }

  // Restarts every committee's idle clock; the monitor calls this when
  // it starts so construction-to-run gaps are not billed as idle time.
  void reset_progress_clocks() {
    std::lock_guard lk(mu_);
    const auto now = Clock::now();
    for (auto& s : states_) s.last_progress = now;
  }

  // Progress heartbeat: batch b of committee c joined at some member.
  void report_batch_done(unsigned c, unsigned b) {
    std::lock_guard lk(mu_);
    State& s = state(c);
    if (b + 1 > s.batches_done) s.batches_done = b + 1;
    s.last_progress = Clock::now();
    if (s.health == CommitteeHealth::kLagging) {
      s.health = CommitteeHealth::kLive;
      tel_health(c, CommitteeHealth::kLive);
      trace_beacon("health", c, "state=live batch=" + std::to_string(b));
    }
  }

  // Drops committee c from the beacon starting at from_batch (its gates
  // for batches >= from_batch close; its exposure gate closes). Returns
  // false if the min_live floor blocks the eviction; true if evicted
  // (idempotently so).
  bool evict(unsigned c, unsigned from_batch, EvictionReason reason) {
    std::lock_guard lk(mu_);
    State& s = state(c);
    if (s.health == CommitteeHealth::kEvicted) return true;
    return evict_locked(s, c, from_batch, reason);
  }

  void mark_lagging(unsigned c) {
    std::lock_guard lk(mu_);
    State& s = state(c);
    if (s.health != CommitteeHealth::kLive) return;
    s.health = CommitteeHealth::kLagging;
    ++counters_.lagging_transitions;
    tel_health(c, CommitteeHealth::kLagging);
    if (telemetry_enabled()) {
      metrics().counter("beacon_lagging_total").add(1);
    }
    trace_beacon("health", c, "state=lagging");
  }

  // Combine-step bookkeeping: a window was emitted without every live
  // committee's contribution.
  void note_degraded_window() {
    std::lock_guard lk(mu_);
    ++counters_.degraded_windows;
    if (telemetry_enabled()) {
      metrics().counter("beacon_degraded_windows_total").add(1);
    }
  }

  [[nodiscard]] CommitteeHealth health(unsigned c) const {
    std::lock_guard lk(mu_);
    return state(c).health;
  }
  [[nodiscard]] EvictionReason reason(unsigned c) const {
    std::lock_guard lk(mu_);
    return state(c).reason;
  }
  [[nodiscard]] unsigned evicted_at(unsigned c) const {
    std::lock_guard lk(mu_);
    return state(c).evicted_at;
  }
  [[nodiscard]] unsigned batches_done(unsigned c) const {
    std::lock_guard lk(mu_);
    return state(c).batches_done;
  }
  [[nodiscard]] double ms_since_progress(unsigned c) const {
    std::lock_guard lk(mu_);
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     state(c).last_progress)
        .count();
  }
  [[nodiscard]] unsigned live_count() const {
    std::lock_guard lk(mu_);
    return live_count_locked();
  }
  [[nodiscard]] unsigned committees() const {
    return static_cast<unsigned>(states_.size());
  }
  [[nodiscard]] unsigned batches() const { return batches_; }
  [[nodiscard]] HealthCounters counters() const {
    std::lock_guard lk(mu_);
    return counters_;
  }
  [[nodiscard]] const FailoverPolicy& policy() const { return policy_; }

 private:
  struct State {
    CommitteeHealth health = CommitteeHealth::kLive;
    EvictionReason reason = EvictionReason::kNone;
    unsigned evicted_at = 0;   // first batch the committee must not launch
    unsigned batches_done = 0;
    std::optional<bool> expose;       // latched exposure verdict
    std::map<unsigned, bool> gates;   // latched launch verdicts by batch
    Clock::time_point last_progress;
  };

  State& state(unsigned c) {
    DPRBG_CHECK(c < states_.size());
    return states_[c];
  }
  const State& state(unsigned c) const {
    DPRBG_CHECK(c < states_.size());
    return states_[c];
  }

  [[nodiscard]] unsigned live_count_locked() const {
    unsigned live = 0;
    for (const auto& s : states_) {
      if (s.health != CommitteeHealth::kEvicted) ++live;
    }
    return live;
  }

  bool evict_locked(State& s, unsigned c, unsigned from_batch,
                    EvictionReason reason) {
    if (live_count_locked() <= policy_.min_live) return false;
    s.health = CommitteeHealth::kEvicted;
    s.reason = reason;
    s.evicted_at = from_batch;
    // Never override an already-latched exposure verdict: if some member
    // has read "expose" and entered the exposure rounds, every other
    // member must follow it through or the roster barrier deadlocks.
    if (!s.expose.has_value()) s.expose = false;
    ++counters_.evictions;
    tel_health(c, CommitteeHealth::kEvicted);
    if (telemetry_enabled()) {
      metrics().counter("beacon_evictions_total",
                        std::string("reason=") + to_string(reason))
          .add(1);
    }
    trace_beacon("evict", c,
                 std::string("reason=") + to_string(reason) +
                     " batch=" + std::to_string(from_batch));
    return true;
  }

  // Health-state gauge, one per committee, value = enum (0 live,
  // 1 lagging, 2 evicted). Transitions are rare, so the registry lookup
  // per call is fine; no registry mutation while telemetry is disabled.
  static void tel_health(unsigned c, CommitteeHealth h) {
    if (!telemetry_enabled()) return;
    metrics()
        .gauge("beacon_committee_health", "committee=" + std::to_string(c))
        .set(static_cast<std::int64_t>(h));
  }

  const FailoverPolicy policy_;
  const unsigned batches_;
  mutable std::mutex mu_;
  std::vector<State> states_;
  HealthCounters counters_;
};

// Wall-clock watchdog: a background thread that marks committees lagging
// and evicts them when they blow their batch budget. Runs only when the
// policy sets wall_budget_ms > 0; otherwise construction is a no-op.
class BudgetMonitor {
 public:
  BudgetMonitor(HealthBoard& board, unsigned committees)
      : board_(board), committees_(committees) {
    if (board_.policy().wall_budget_ms > 0) {
      th_ = std::thread([this] { loop(); });
    }
  }
  ~BudgetMonitor() { stop(); }

  BudgetMonitor(const BudgetMonitor&) = delete;
  BudgetMonitor& operator=(const BudgetMonitor&) = delete;

  void stop() {
    {
      std::lock_guard lk(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    if (th_.joinable()) th_.join();
  }

 private:
  void loop() {
    const FailoverPolicy& p = board_.policy();
    const double budget = static_cast<double>(p.wall_budget_ms);
    board_.reset_progress_clocks();
    std::unique_lock lk(mu_);
    while (!stopping_) {
      cv_.wait_for(lk, std::chrono::milliseconds(p.poll_ms));
      if (stopping_) break;
      lk.unlock();
      for (unsigned c = 0; c < committees_; ++c) {
        if (board_.health(c) == CommitteeHealth::kEvicted) continue;
        const unsigned done = board_.batches_done(c);
        if (done >= board_.batches()) continue;  // finished, can't stall
        const double idle = board_.ms_since_progress(c);
        if (idle >= budget * p.evict_after) {
          board_.evict(c, done,
                       done == 0 ? EvictionReason::kCrashed
                                 : EvictionReason::kStalled);
        } else if (idle >= budget * p.lagging_after) {
          board_.mark_lagging(c);
        }
      }
      lk.lock();
    }
  }

  HealthBoard& board_;
  const unsigned committees_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::thread th_;
};

// One epoch handover: an old roster, its replacement, and a bridge
// committee over their union that carries the cross_roster_reshare
// traffic. The union-local id layout required by the reshare protocol
// (old roster first) is enforced by requiring every old member's global
// id to be smaller than every new member's — Committee sorts members, so
// rank order then puts the old roster at union-local ids 0..n_old-1.
class EpochBridge {
 public:
  struct Options {
    unsigned t_old = 1;
    unsigned t_new = 1;
    std::uint32_t old_first_stream = 0;
    std::uint32_t new_first_stream = 4096;
    std::uint32_t bridge_first_stream = 8192;
    std::uint32_t stream_count = 4096;
    std::uint32_t old_id = 0;
    std::uint32_t new_id = 1;
    std::uint32_t bridge_id = 2;
  };

  EpochBridge(Cluster& cluster, std::vector<int> old_members,
              std::vector<int> new_members)
      : EpochBridge(cluster, std::move(old_members), std::move(new_members),
                    Options()) {}

  EpochBridge(Cluster& cluster, std::vector<int> old_members,
              std::vector<int> new_members, Options opts)
      : opts_(opts), n_old_(static_cast<int>(old_members.size())) {
    DPRBG_CHECK(!old_members.empty() && !new_members.empty());
    int max_old = old_members[0];
    for (int g : old_members) max_old = g > max_old ? g : max_old;
    int min_new = new_members[0];
    for (int g : new_members) min_new = g < min_new ? g : min_new;
    DPRBG_CHECK(max_old < min_new);  // union-local layout: old roster first

    std::vector<int> union_members = old_members;
    union_members.insert(union_members.end(), new_members.begin(),
                         new_members.end());

    Committee::Options co;
    co.id = opts_.old_id;
    co.first_stream = opts_.old_first_stream;
    co.stream_count = opts_.stream_count;
    co.t = static_cast<int>(opts_.t_old);
    old_ = std::make_unique<Committee>(cluster, std::move(old_members), co);

    Committee::Options cn;
    cn.id = opts_.new_id;
    cn.first_stream = opts_.new_first_stream;
    cn.stream_count = opts_.stream_count;
    cn.t = static_cast<int>(opts_.t_new);
    new_ = std::make_unique<Committee>(cluster, std::move(new_members), cn);

    Committee::Options cb;
    cb.id = opts_.bridge_id;
    cb.first_stream = opts_.bridge_first_stream;
    cb.stream_count = opts_.stream_count;
    cb.t = static_cast<int>(opts_.t_old > opts_.t_new ? opts_.t_old
                                                      : opts_.t_new);
    bridge_ =
        std::make_unique<Committee>(cluster, std::move(union_members), cb);
  }

  [[nodiscard]] Committee& old_roster() { return *old_; }
  [[nodiscard]] Committee& new_roster() { return *new_; }
  [[nodiscard]] Committee& bridge() { return *bridge_; }
  [[nodiscard]] int n_old() const { return n_old_; }

  // Migrates `pool` across the epoch boundary: every bridge member (old
  // and new roster alike) calls this in lockstep with its own view of
  // the same pool. On success the pool holds the same coins in the same
  // order with consumed() untouched — new members now hold live shares,
  // old members hold shareless views. `challenge` is one sealed coin of
  // the OLD sharing spent on batch verification (new members pass a
  // shareless view of it).
  template <FiniteField F>
  bool migrate_pool(PartyIo& io, CoinPool<F>& pool,
                    const SealedCoin<F>& challenge, unsigned instance = 0) {
    Endpoint& ep = bridge_->endpoint(io);
    std::vector<SealedCoin<F>> view(pool.coins().begin(),
                                    pool.coins().end());
    const auto res = cross_roster_reshare<F>(ep, n_old_, opts_.t_new, view,
                                             challenge, instance);
    if (!res.success) return false;
    pool.replace_all(std::move(res.coins));
    if (ep.id() == 0) {
      trace_beacon("epoch", opts_.bridge_id,
                   "migrated=" + std::to_string(view.size()));
    }
    return true;
  }

  // A pool of `count` shareless views (degree `degree`) — what a NEW
  // roster member passes into migrate_pool before it holds any shares.
  template <FiniteField F>
  [[nodiscard]] static CoinPool<F> shareless_pool(std::size_t count,
                                                  unsigned degree) {
    CoinPool<F> pool;
    for (std::size_t i = 0; i < count; ++i) {
      pool.add(SealedCoin<F>{std::nullopt, degree});
    }
    return pool;
  }

 private:
  Options opts_;
  int n_old_;
  std::unique_ptr<Committee> old_;
  std::unique_ptr<Committee> new_;
  std::unique_ptr<Committee> bridge_;
};

}  // namespace dprbg
