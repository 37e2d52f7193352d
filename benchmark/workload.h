// The benchmark's workloads and the per-player program that drives them.
//
// Every workload is a closed loop with one outstanding request per player,
// issued from that player's own program thread: the protocols are lockstep,
// and their callers (randomized BA, leader election) block on each coin.
// The same program runs on the simulated Cluster (the correctness oracle)
// and on TcpLoopback (the measured run); only the endpoint type differs.

#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <cstdint>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "coin/coin_expose.h"
#include "coin/coin_gen.h"
#include "coin/coin_pipeline.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "dprbg/coin_pool.h"
#include "dprbg/dprbg.h"
#include "dprbg/trusted_dealer.h"
#include "gf/gf2.h"
#include "net/tcp_cluster.h"
#include "timed_io.h"

namespace dprbg::bench {

using F = GF2_64;

// n = 7, t = 1: the smallest roster with a real fault bound under
// Coin-Gen's n >= 6t + 1.
inline constexpr int kN = 7;
inline constexpr int kT = 1;

enum class Kind {
  kDraw,  // DPrbg::next_coin, one request per coin
  kNode,  // dprbg_node's program: pipelined Coin-Gen, then expose every coin
  kMint,  // pipelined Coin-Gen only; a request is one batch
};

struct Workload {
  std::string_view name;
  Kind kind;
  unsigned m;              // coins per Coin-Gen batch
  unsigned depth;          // pipeline depth (draw: DPrbg's refill depth)
  unsigned cycle_batches;  // node/mint: batches per pipelined_coin_gen call
  unsigned warmup;         // requests before any measured segment
  unsigned oracle;         // requests after warm-up replayed on the simulator
  int crash;               // player that returns after warm-up, or -1
  // node/mint: the genesis pool of a traced run is sized for this many
  // batches per second of it (the gate stops the run there, so seeds never
  // run out).
  unsigned max_batches_per_s;
  // Requests (node/mint: batches) in each measured pass of an untraced run,
  // about 3 s on a loaded 4-vCPU host.
  unsigned pass_requests;
};

// DPrbg's refill threshold on the draw workloads. A refill spends one
// challenge coin plus one seed coin per leader draw, and a draw that lands
// on the crashed player costs another. At the default threshold of 6, five
// such draws in a row (probability (1/7)^5 per refill, about one 24 s run
// in ten) empty the seed pool, and the generator can never refill again.
// 16 covers fifteen.
inline constexpr unsigned kDrawReserve = 16;

inline const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"draw-m64", Kind::kDraw, 64, 1, 0, 128, 1000, -1, 0, 12000},
      {"draw-m64-crash", Kind::kDraw, 64, 1, 0, 128, 1000, 6, 0, 12000},
      // One cycle is exactly the oracle prefix, so the simulator replays
      // whole cycles, root-stream exposes included. A pass is whole cycles.
      {"node-m4-d2", Kind::kNode, 4, 2, 250, 4, 250, -1, 1500, 750},
      {"mint-m4096-d4", Kind::kMint, 4096, 4, 32, 8, 16, -1, 500, 320},
  };
  return all;
}

inline const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

// The lockstep stop decision. All players must make the same number of
// requests, so the first player to reach request k decides whether k runs
// and every other player reads that verdict. Players are at most a request
// apart, so two counters suffice.
class StopGate {
 public:
  // Requests run while the clock is before `deadline_ns` or fewer than
  // `minimum` have run, and never more than `limit`.
  void arm(std::int64_t deadline_ns, std::uint64_t minimum,
           std::uint64_t limit) {
    std::lock_guard lk(mu_);
    deadline_ns_ = deadline_ns;
    minimum_ = minimum;
    limit_ = limit;
    decided_ = 0;
    closed_at_ = kNever;
  }
  bool open(std::uint64_t k) {
    std::lock_guard lk(mu_);
    if (k < decided_) return k < closed_at_;
    const bool ok = closed_at_ == kNever && k < limit_ &&
                    (k < minimum_ || now_ns() < deadline_ns_);
    decided_ = k + 1;
    if (!ok) closed_at_ = k;
    return ok;
  }
  // Refuses every request not yet decided. A player calls this after a
  // failed request: honest players fail together, and a pass that keeps
  // going after a failure only measures how fast failures come back.
  void close() {
    std::lock_guard lk(mu_);
    limit_ = std::min(limit_, decided_);
  }

 private:
  static constexpr std::uint64_t kNever =
      std::numeric_limits<std::uint64_t>::max();
  std::mutex mu_;
  std::int64_t deadline_ns_ = 0;
  std::uint64_t minimum_ = 0;
  std::uint64_t limit_ = 0;
  std::uint64_t decided_ = 0;
  std::uint64_t closed_at_ = kNever;
};

struct SegmentSpec {
  double seconds = 0;
  bool traced = false;
  // Requests the segment runs at least and at most, whatever the clock.
  std::uint64_t minimum = 0;
  std::uint64_t limit = std::numeric_limits<std::uint64_t>::max();
};

// One measured stretch of a pass. Players leave a shared barrier together
// at its start and meet again at its end; the barrier's completion step
// takes the process-wide snapshots while every player is parked.
struct Segment {
  SegmentSpec spec;
  StopGate gate;
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = 0;
  double cpu0_s = 0;
  double cpu1_s = 0;
  // Transport snapshots, filled by the TCP pass only.
  std::vector<TcpStats> stats0;
  std::vector<TcpStats> stats1;
  long threads = 0;
};

// What one player saw during one segment.
struct SegmentLog {
  std::uint64_t requests = 0;
  std::uint64_t failed = 0;
  std::uint64_t coins = 0;
  std::vector<double> latency_us;
  FieldCounters ops;
  CommCounters sent;  // protocol ledger, all of this player's streams
  // Coin-Gen batches run (draw: refills) and the seed coins they used.
  std::uint64_t batches = 0;
  std::uint64_t seed_coins = 0;
  // Traced segments only.
  std::vector<double> refill_ms;
  std::vector<double> expose_us;
  struct BatchTimes {
    std::uint32_t stream;
    std::int64_t launch_ns;
    std::int64_t join_ns;
  };
  std::vector<BatchTimes> batch_times;
};

// Everything one player recorded in a pass.
struct PlayerLog {
  // Per output (coin value or Coin-Gen batch), in order: `agree` folds in
  // what every honest player must share, over the whole pass; `full` keeps
  // everything this player holds (its own coin shares included) for the
  // outputs the oracle replays. Neither grows with the pass's length, so
  // the process's RSS is the program's, not the benchmark's log.
  std::uint64_t agree = 0;
  std::vector<std::uint64_t> full;
  // Per-stream comm ledger once the first warmup + oracle requests are
  // done: batch streams as they join, the root stream right after.
  std::map<std::uint32_t, CommCounters> ledger;
  std::int64_t warm_ns = 0;
  std::vector<SegmentLog> segs;
  std::vector<Timeline> timelines;
};

// Threads of this process, from /proc.
inline long process_threads() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "Threads:") {
      long n = 0;
      in >> n;
      return n;
    }
  }
  return 0;
}

// User + system CPU time of this process.
inline double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

struct Pass {
  Pass(const Workload& workload, std::uint64_t s,
       const std::vector<SegmentSpec>& specs, std::uint64_t ledger_requests)
      : w(workload),
        seed(s),
        segments(specs.size()),
        ledger_at(ledger_requests),
        barrier(kN - (workload.crash >= 0 ? 1 : 0), Step{this}) {
    for (std::size_t i = 0; i < specs.size(); ++i) segments[i].spec = specs[i];
  }
  Pass(const Pass&) = delete;
  Pass& operator=(const Pass&) = delete;

  // Requests a segment may run: its own limit and, for the Coin-Gen
  // workloads, the batches its genesis share can seed.
  [[nodiscard]] std::uint64_t gate_limit(const SegmentSpec& s) const {
    if (w.kind == Kind::kDraw) return s.limit;
    return std::min<std::uint64_t>(
        s.limit, static_cast<std::uint64_t>(s.seconds * w.max_batches_per_s));
  }

  // Coin-Gen batches the pass may run, which sizes genesis.
  [[nodiscard]] std::uint64_t batch_budget() const {
    std::uint64_t total = w.warmup;
    for (const Segment& s : segments) total += gate_limit(s.spec);
    return total;
  }

  void deal_genesis() {
    const std::uint64_t count =
        w.kind == Kind::kDraw ? 2 * kDrawReserve : 3 * batch_budget() + 8;
    genesis = trusted_dealer_coins<F>(kN, kT, static_cast<int>(count), seed);
  }

  const Workload& w;
  const std::uint64_t seed;
  std::vector<Segment> segments;
  const std::uint64_t ledger_at;
  // Outputs each player keeps in PlayerLog::full.
  std::size_t full_cap = std::numeric_limits<std::size_t>::max();
  std::vector<std::vector<SealedCoin<F>>> genesis;
  std::atomic<bool> stamping{false};
  std::array<PlayerLog, kN> logs;
  // Transport snapshots at segment start and end (TCP pass only).
  std::function<void(std::vector<TcpStats>&)> snapshot;

 private:
  struct Step {
    Pass* p;
    void operator()() noexcept { p->step(); }
  };
  void step() noexcept {
    Segment& s = segments[phase_ / 2];
    if (phase_ % 2 == 0) {
      if (snapshot) snapshot(s.stats0);
      s.threads = process_threads();
      if (s.spec.traced) {
        tracer().clear();
        tracer().set_enabled(true);
        stamping.store(true, std::memory_order_relaxed);
      }
      s.cpu0_s = process_cpu_s();
      s.t0_ns = now_ns();
      s.gate.arm(s.t0_ns + static_cast<std::int64_t>(s.spec.seconds * 1e9),
                 s.spec.minimum, gate_limit(s.spec));
    } else {
      s.t1_ns = now_ns();
      s.cpu1_s = process_cpu_s();
      if (s.spec.traced) {
        stamping.store(false, std::memory_order_relaxed);
        tracer().set_enabled(false);
      }
      if (snapshot) snapshot(s.stats1);
    }
    ++phase_;
  }
  std::size_t phase_ = 0;

 public:
  std::barrier<Step> barrier;
};

inline std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  return h * 0xBF58476D1CE4E5B9ull;
}

inline std::uint64_t agree_digest(const CoinGenResult<F>& r) {
  std::uint64_t h = mix(0, r.success ? 1 : 0);
  for (int j : r.clique) h = mix(h, static_cast<std::uint64_t>(j));
  h = mix(h, 0xC11u);
  for (int j : r.summed_dealers) h = mix(h, static_cast<std::uint64_t>(j));
  h = mix(h, r.iterations);
  return mix(h, r.seed_coins_used);
}

inline std::uint64_t full_digest(const CoinGenResult<F>& r) {
  std::uint64_t h = mix(agree_digest(r), r.qualified ? 1 : 0);
  for (const F& s : r.coin_shares) h = mix(h, s.to_uint());
  return h;
}

inline constexpr std::uint64_t kFailedCoin = ~0ull;

// Latency samples a player's segment reserves room for: 2 MB of address
// space, far more requests than a pass makes.
inline constexpr std::size_t kLatencyRoom = std::size_t{1} << 18;

// One player's program for one pass.
template <NetEndpoint Io>
class Player {
 public:
  Player(Io& raw, Pass& pass)
      : io_(raw, pass.stamping),
        pass_(pass),
        w_(pass.w),
        log_(pass.logs[static_cast<std::size_t>(raw.id())]) {
    auto& mine = pass.genesis[static_cast<std::size_t>(raw.id())];
    if (w_.kind == Kind::kDraw) {
      typename DPrbg<F>::Options o;
      o.batch_size = w_.m;
      o.pipeline_depth = w_.depth;
      o.reserve = kDrawReserve;
      prbg_.emplace(o, mine);
    } else {
      for (const auto& c : mine) pool_.add(c);
    }
  }

  void run() {
    const int id = io_.id();
    if (w_.kind == Kind::kDraw) {
      for (unsigned i = 0; i < w_.warmup; ++i) draw(nullptr);
    } else {
      std::uint64_t unused = 0;
      cycle(w_.warmup, nullptr, nullptr, unused);
    }
    log_.warm_ns = now_ns();
    if (id == w_.crash) return;
    log_.segs.resize(pass_.segments.size());
    // Room for every latency sample a segment takes, so that the log's
    // pages are touched one by one as the pass runs instead of the vector
    // doubling at a length that the run's speed decides.
    for (SegmentLog& s : log_.segs) s.latency_us.reserve(kLatencyRoom);
    for (std::size_t s = 0; s < pass_.segments.size(); ++s) {
      pass_.barrier.arrive_and_wait();
      io_.mark(StampKind::kBegin);
      segment(pass_.segments[s], log_.segs[s]);
      io_.mark(StampKind::kEnd);
      pass_.barrier.arrive_and_wait();
    }
    log_.timelines = io_.take_timelines();
  }

 private:
  void segment(Segment& seg, SegmentLog& out) {
    const FieldCounters ops0 = field_counters();
    const CommCounters sent0 = io_.family_sent();
    if (w_.kind == Kind::kDraw) {
      const std::uint64_t refills0 = prbg_->refills();
      const std::uint64_t seeds0 = prbg_->seed_coins_spent_refilling();
      for (std::uint64_t k = 0; seg.gate.open(k); ++k) {
        if (!draw(&out)) seg.gate.close();
      }
      out.batches = prbg_->refills() - refills0;
      out.seed_coins = prbg_->seed_coins_spent_refilling() - seeds0;
    } else {
      std::uint64_t k = 0;
      while (cycle(w_.cycle_batches, &seg.gate, &out, k)) {
      }
    }
    out.ops = field_counters() - ops0;
    out.sent = io_.family_sent() - sent0;
  }

  // One next_coin call; returns whether it delivered a coin.
  bool draw(SegmentLog* out) {
    const std::int64_t t0 = now_ns();
    const std::uint64_t r0 = io_.rounds();
    const std::optional<F> v = prbg_->next_coin(io_);
    const std::int64_t t1 = now_ns();
    const std::uint64_t value = v ? v->to_uint() : kFailedCoin;
    output(value, value);
    ++done_;
    snapshot_root();
    if (out == nullptr) return v.has_value();
    ++out->requests;
    if (v) {
      ++out->coins;
    } else {
      ++out->failed;
    }
    out->latency_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    // The expose is the call's last round; a refill ran before it when the
    // call took more than one round.
    const std::int64_t expose_at = io_.last_first_send_ns();
    if (pass_.stamping.load(std::memory_order_relaxed) && expose_at >= t0) {
      if (io_.rounds() - r0 > 1) {
        out->refill_ms.push_back(static_cast<double>(expose_at - t0) / 1e6);
      }
      out->expose_us.push_back(static_cast<double>(t1 - expose_at) / 1e3);
    }
    return v.has_value();
  }

  // One pipelined_coin_gen call of up to `batches` batches (node: then
  // expose every minted coin). `gate` == nullptr runs all of them; a
  // failure closes the gate after this cycle. Returns false once the gate
  // has closed.
  bool cycle(unsigned batches, StopGate* gate, SegmentLog* out,
             std::uint64_t& gate_index) {
    const bool traced = pass_.stamping.load(std::memory_order_relaxed);
    std::vector<std::int64_t> launched(batches, 0);
    const std::uint64_t base = gate_index;
    const std::uint32_t first = next_stream_;
    PipelineOptions po;
    po.depth = w_.depth;
    po.first_batch_id = first;
    po.may_launch = [&](unsigned b) {
      if (gate != nullptr && !gate->open(base + b)) return false;
      launched[b] = now_ns();
      return true;
    };
    po.on_batch_joined = [&](unsigned b) {
      const std::int64_t joined = now_ns();
      if (done_ < pass_.ledger_at) {
        log_.ledger[first + b] = io_.instance(first + b).sent();
      }
      ++done_;
      if (out == nullptr) return;
      out->latency_us.push_back(static_cast<double>(joined - launched[b]) /
                                1e3);
      if (traced) {
        out->batch_times.push_back({first + b, launched[b], joined});
      }
    };
    io_.mark(StampKind::kCall);
    const PipelineResult<F> res =
        pipelined_coin_gen<F>(io_, w_.m, pool_, batches, po);
    io_.mark(StampKind::kReturn);
    next_stream_ += batches;
    gate_index += res.launched;

    bool failed = false;
    std::vector<SealedCoin<F>> minted;
    for (unsigned b = 0; b < res.launched; ++b) {
      const CoinGenResult<F>& r = res.batches[b];
      output(agree_digest(r), full_digest(r));
      failed = failed || !r.success;
      if (out != nullptr) {
        ++out->requests;
        ++out->batches;
        out->seed_coins += r.seed_coins_used;
        if (!r.success) ++out->failed;
        if (w_.kind == Kind::kMint && r.success) out->coins += w_.m;
      }
      if (w_.kind == Kind::kNode) {
        auto coins = r.sealed_coins(static_cast<unsigned>(kT));
        minted.insert(minted.end(), coins.begin(), coins.end());
      }
    }
    // Each exposure is a request too: a nullopt coin is a failure.
    for (const SealedCoin<F>& c : minted) {
      const std::optional<F> v =
          coin_expose<F>(io_, c, expose_instance_++ & 0xFFFu);
      const std::uint64_t value = v ? v->to_uint() : kFailedCoin;
      output(value, value);
      failed = failed || !v;
      if (out == nullptr) continue;
      ++out->requests;
      if (v) {
        ++out->coins;
      } else {
        ++out->failed;
      }
    }
    snapshot_root();
    if (failed && gate != nullptr) gate->close();
    return !res.cancelled;
  }

  void output(std::uint64_t agree, std::uint64_t full) {
    log_.agree = mix(log_.agree, agree);
    if (log_.full.size() < pass_.full_cap) log_.full.push_back(full);
  }

  void snapshot_root() {
    if (!root_logged_ && done_ >= pass_.ledger_at) {
      log_.ledger[0] = io_.sent();
      root_logged_ = true;
    }
  }

  TimedIo<Io> io_;
  Pass& pass_;
  const Workload& w_;
  PlayerLog& log_;
  std::optional<DPrbg<F>> prbg_;
  CoinPool<F> pool_;
  std::uint32_t next_stream_ = 1;
  unsigned expose_instance_ = 0;
  std::uint64_t done_ = 0;
  bool root_logged_ = false;
};

}  // namespace dprbg::bench
