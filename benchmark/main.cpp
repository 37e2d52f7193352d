// dprbg_bench: the socket-level D-PRBG benchmark.
//
//   dprbg_bench --workload=W [--seed=S] [--seconds=X] [--trace] [--smoke]
//
// Runs one workload on TcpLoopback (n=7, t=1, all players in this process
// over 127.0.0.1, no injected link delay) and prints, as the last line of
// stdout, one JSON object {"correct", "attempted", "failed", "metrics"}.
// Without --trace the metrics are the end-to-end ones, measured with the
// tracer off. With --trace the run measures an untraced and then a traced
// segment and prints the per-layer metrics, the tracing overhead included.
//
// Every run also checks its outputs: the first warm-up + oracle requests
// are replayed on the simulated Cluster at the same seed (outputs and comm
// ledgers must be bit-for-bit equal), honest players must agree over the
// whole run, and a clean workload must see no stale, foreign, undecodable
// or lapsed frames and no reconnects. Any violation exits 1.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "attribution.h"
#include "net/cluster.h"
#include "net/tcp_cluster.h"
#include "workload.h"

namespace dprbg::bench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 4242;
  double seconds = -1;
  bool trace = false;
  bool smoke = false;
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    const auto val = [&](std::string_view prefix) -> const char* {
      return arg.rfind(prefix, 0) == 0 ? argv[i] + prefix.size() : nullptr;
    };
    if (const char* v = val("--workload=")) {
      a->workload = v;
    } else if (const char* v = val("--seed=")) {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = val("--seconds=")) {
      a->seconds = std::strtod(v, nullptr);
      if (!(a->seconds > 0)) return false;
    } else if (arg == "--trace") {
      a->trace = true;
    } else if (arg == "--smoke") {
      a->smoke = true;
    } else {
      return false;
    }
  }
  return !a->workload.empty();
}

bool honest(const Workload& w, int p) { return p != w.crash; }

// Any honest player: with lockstep requests, their counts are identical.
int first_honest(const Workload& w) { return w.crash == 0 ? 1 : 0; }

// The oracle: the first warm-up + oracle requests on the simulated Cluster.
void run_sim_pass(Pass& pass) {
  pass.deal_genesis();
  Cluster sim(kN, kT, pass.seed);
  sim.run(std::vector<Cluster::Program>(kN, [&pass](PartyIo& io) {
    Player<PartyIo>(io, pass).run();
  }));
}

// One TcpLoopback mesh: set up, warm up, then run the pass's segments.
// Returns the set-up time (loopback construction to the last player done
// with warm-up) and each node's final transport counters.
double run_tcp_pass(Pass& pass, std::vector<TcpStats>& final_stats) {
  const std::int64_t t0 = now_ns();
  TcpLoopback loop(kN, kT, pass.seed);
  pass.deal_genesis();
  if (!loop.start()) throw std::runtime_error("loopback mesh did not come up");
  pass.snapshot = [&loop](std::vector<TcpStats>& out) {
    out.clear();
    for (int i = 0; i < kN; ++i) out.push_back(loop.node(i).stats());
  };
  std::vector<TcpCluster::Program> programs;
  for (int i = 0; i < kN; ++i) {
    programs.push_back(
        [&pass](TcpPartyIo& io) { Player<TcpPartyIo>(io, pass).run(); });
  }
  loop.run(std::move(programs));
  pass.snapshot = nullptr;
  std::int64_t warm = t0;
  for (const PlayerLog& log : pass.logs) warm = std::max(warm, log.warm_ns);
  for (int i = 0; i < kN; ++i) final_stats.push_back(loop.node(i).stats());
  return static_cast<double>(warm - t0) / 1e9;
}

class Verdict {
 public:
  template <typename... A>
  void fail(const char* fmt, A... args) {
    ok_ = false;
    std::fprintf(stderr, "dprbg_bench: CHECK FAILED: ");
    std::fprintf(stderr, fmt, args...);
    std::fputc('\n', stderr);
  }
  [[nodiscard]] bool ok() const { return ok_; }

 private:
  bool ok_ = true;
};

bool same(const CommCounters& a, const CommCounters& b) {
  return a.messages == b.messages && a.bytes == b.bytes &&
         a.rounds == b.rounds;
}

void check_oracle(const Pass& sim, const Pass& tcp, Verdict& v) {
  for (int p = 0; p < kN; ++p) {
    const PlayerLog& s = sim.logs[static_cast<std::size_t>(p)];
    const PlayerLog& t = tcp.logs[static_cast<std::size_t>(p)];
    if (t.full.size() < s.full.size()) {
      v.fail("player %d: %zu outputs over TCP, %zu replayed on the simulator",
             p, t.full.size(), s.full.size());
      continue;
    }
    for (std::size_t k = 0; k < s.full.size(); ++k) {
      if (s.full[k] != t.full[k]) {
        v.fail("player %d: output %zu differs from the simulator", p, k);
        break;
      }
    }
    bool ledgers_equal = s.ledger.size() == t.ledger.size();
    for (const auto& [stream, c] : s.ledger) {
      const auto it = t.ledger.find(stream);
      ledgers_equal =
          ledgers_equal && it != t.ledger.end() && same(c, it->second);
    }
    if (!ledgers_equal) {
      v.fail("player %d: comm ledger differs from the simulator", p);
    }
  }
}

void check_agreement(const Workload& w, const Pass& tcp, Verdict& v) {
  const PlayerLog& ref = tcp.logs[static_cast<std::size_t>(first_honest(w))];
  for (int p = 0; p < kN; ++p) {
    if (!honest(w, p)) continue;
    if (tcp.logs[static_cast<std::size_t>(p)].agree != ref.agree) {
      v.fail("honest players %d and %d disagree", first_honest(w), p);
    }
  }
}

void check_clean_transport(const std::vector<TcpStats>& stats, Verdict& v) {
  std::uint64_t bad = 0;
  for (const TcpStats& s : stats) {
    bad += s.stale_rejections + s.foreign_rejections + s.decode_rejections +
           s.frame_decode_failures + s.lapsed_frames + s.banned_suppressions;
    for (const auto& p : s.peers) bad += p.reconnects;
  }
  if (bad != 0) {
    v.fail("clean workload saw %llu stale/foreign/decode/lapsed frames or "
           "reconnects", static_cast<unsigned long long>(bad));
  }
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Differences of transport counters over a segment, summed over nodes.
struct NetDelta {
  std::uint64_t tx_bytes = 0;
  std::uint64_t tx_frames = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t stale = 0;
  std::uint64_t decode = 0;
  std::uint64_t lapsed = 0;
};

NetDelta net_delta(const Segment& s) {
  NetDelta d;
  for (std::size_t i = 0; i < s.stats1.size(); ++i) {
    const TcpStats& a = s.stats0[i];
    const TcpStats& b = s.stats1[i];
    for (std::size_t j = 0; j < b.peers.size(); ++j) {
      d.tx_bytes += b.peers[j].tx_bytes - a.peers[j].tx_bytes;
      d.tx_frames += b.peers[j].tx_frames - a.peers[j].tx_frames;
      d.reconnects += b.peers[j].reconnects - a.peers[j].reconnects;
    }
    d.stale += b.stale_rejections - a.stale_rejections;
    d.decode += b.decode_rejections - a.decode_rejections;
    d.lapsed += b.lapsed_frames - a.lapsed_frames;
  }
  return d;
}

double seconds_of(const Segment& s) {
  return static_cast<double>(s.t1_ns - s.t0_ns) / 1e9;
}

double require(std::optional<double> v, const char* what) {
  if (!v) {
    throw std::runtime_error(std::string("too few samples for ") + what);
  }
  return *v;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// The process's largest resident set so far.
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// The end-to-end numbers of one measured pass.
struct PassNumbers {
  double coins_per_s = 0;
  double p50_us = 0;
  double p99_us = 0;
  double setup_s = 0;
  double wire_bytes_per_coin = 0;
  double cpu_us_per_coin = 0;
  std::uint64_t requests = 0;
  std::uint64_t failed = 0;
  std::size_t samples = 0;
};

PassNumbers pass_numbers(const Workload& w, const Pass& tcp, double setup_s) {
  const Segment& seg = tcp.segments[0];
  const SegmentLog& ref =
      tcp.logs[static_cast<std::size_t>(first_honest(w))].segs[0];
  if (ref.coins == 0) throw std::runtime_error("no coins delivered");
  const double coins = static_cast<double>(ref.coins);
  std::vector<double> lat;
  lat.reserve(static_cast<std::size_t>(kN) * ref.latency_us.size());
  for (int p = 0; p < kN; ++p) {
    if (!honest(w, p)) continue;
    const auto& l = tcp.logs[static_cast<std::size_t>(p)].segs[0].latency_us;
    lat.insert(lat.end(), l.begin(), l.end());
  }
  PassNumbers out;
  out.coins_per_s = coins / seconds_of(seg);
  out.p50_us = require(percentile(lat, 0.50), "latency p50");
  out.p99_us = require(percentile(lat, 0.99), "latency p99");
  out.setup_s = setup_s;
  out.wire_bytes_per_coin =
      static_cast<double>(net_delta(seg).tx_bytes) / coins;
  out.cpu_us_per_coin = (seg.cpu1_s - seg.cpu0_s) * 1e6 / coins;
  out.requests = ref.requests;
  out.failed = ref.failed;
  out.samples = lat.size();
  return out;
}

// Each timing is the median over the measured passes.
std::vector<Metric> end_to_end(const std::vector<PassNumbers>& passes,
                               double rss_mb) {
  const auto med = [&](double PassNumbers::*field) {
    std::vector<double> v;
    for (const PassNumbers& p : passes) v.push_back(p.*field);
    return median(v);
  };
  std::uint64_t requests = 0;
  std::uint64_t failed = 0;
  std::size_t samples = 0;
  for (const PassNumbers& p : passes) {
    requests += p.requests;
    failed += p.failed;
    samples += p.samples;
  }
  std::fprintf(stderr,
               "dprbg_bench: %zu passes, %llu requests, %zu latency samples\n",
               passes.size(), static_cast<unsigned long long>(requests),
               samples);
  return {
      {"coins_per_s", med(&PassNumbers::coins_per_s), "coins/s"},
      {"latency_p50_us", med(&PassNumbers::p50_us), "us"},
      {"latency_p99_us", med(&PassNumbers::p99_us), "us"},
      {"setup_s", med(&PassNumbers::setup_s), "s"},
      {"served_frac",
       static_cast<double>(requests - failed) / static_cast<double>(requests),
       "ratio"},
      {"wire_bytes_per_coin", med(&PassNumbers::wire_bytes_per_coin), "B"},
      {"cpu_us_per_coin", med(&PassNumbers::cpu_us_per_coin), "us"},
      {"peak_rss_mb", rss_mb, "MB"},
  };
}

// Spans charged with time on some workload, in the order they are printed.
// Zero-round spans that never make a round's first send (coin-gen.graph,
// coin-gen.clique, coin-gen.output, bitgen.decode) and spans whose every
// round has an inner span (coin-gen.deal, coin-gen.gradecast, ...) are
// never charged.
const std::vector<std::string>& span_metrics() {
  static const std::vector<std::string> names = {
      "coin-expose.expose", "bitgen.deal",      "bitgen.combine",
      "gradecast.send",     "gradecast.echo",   "gradecast.support",
      "phase-king.run",     kDriver,
  };
  return names;
}

std::vector<Metric> per_layer(const Workload& w, Pass& tcp, Verdict& v) {
  const Segment& base = tcp.segments[0];
  const Segment& seg = tcp.segments[1];
  const int ref_player = first_honest(w);
  const SegmentLog& ref =
      tcp.logs[static_cast<std::size_t>(ref_player)].segs[1];
  if (ref.coins == 0) throw std::runtime_error("no coins in traced segment");
  const double coins = static_cast<double>(ref.coins);
  const double players = static_cast<double>(kN - (w.crash >= 0 ? 1 : 0));
  const double base_rate =
      static_cast<double>(
          tcp.logs[static_cast<std::size_t>(ref_player)].segs[0].coins) /
      seconds_of(base);
  const double traced_rate = coins / seconds_of(seg);

  // Spans and first sends per (player, stream), from the tracer.
  using Key = std::pair<int, std::uint32_t>;
  std::map<Key, std::vector<SpanRec>> spans;
  std::map<Key, std::map<std::uint64_t, std::uint64_t>> first_send;
  std::uint64_t deal_spans = 0;
  std::uint64_t leader_spans = 0;
  for (const TraceEvent& ev : tracer().events()) {
    const Key key{ev.player, ev.batch};
    if (ev.kind == TraceEventKind::kSpan) {
      spans[key].push_back(
          {ev.protocol + "." + ev.phase, ev.round_begin, ev.round_end, ev.seq});
      if (ev.protocol == "coin-gen" && ev.phase == "deal") ++deal_spans;
      if (ev.protocol == "coin-gen" && ev.phase == "leader") ++leader_spans;
    } else if (ev.protocol == "net" && ev.phase == "send") {
      first_send[key].emplace(ev.round_begin, ev.seq);  // keeps the first
    }
  }
  tracer().clear();

  // Attribute each (player, stream); collect per-(stream, round) arrivals.
  std::map<std::string, double> self_ns;
  std::map<std::string, double> wait_ns;
  double charged = 0;
  double waited = 0;
  double worst = 0;
  std::map<Key, std::int64_t> stream_wall;
  struct Arrival {
    int count = 0;
    std::int64_t first_enter = 0;
    std::int64_t last_enter = 0;
    std::int64_t first_exit = 0;
  };
  std::map<std::pair<std::uint32_t, std::uint64_t>, Arrival> arrivals;
  for (int p = 0; p < kN; ++p) {
    if (!honest(w, p)) continue;
    for (const Timeline& tl :
         tcp.logs[static_cast<std::size_t>(p)].timelines) {
      if (tl.stamps.empty()) continue;
      const Key key{p, tl.stream};
      const StreamCharges c =
          attribute_stream(tl.stamps, spans[key], first_send[key]);
      for (const auto& [name, ns] : c.self_ns) {
        self_ns[name] += static_cast<double>(ns);
      }
      for (const auto& [name, ns] : c.wait_ns) {
        wait_ns[name] += static_cast<double>(ns);
      }
      waited += static_cast<double>(c.sync_wait_ns);
      charged += static_cast<double>(c.charged_ns);
      stream_wall[key] = c.wall_ns;
      // The root stream's wall time is the segment's, read at the barrier;
      // a batch stream's is its worker thread's lifetime.
      const double err = attribution_error(
          c.charged_ns, tl.stream == 0 ? seg.t1_ns - seg.t0_ns : c.wall_ns);
      worst = std::max(worst, err);
      if (err > 0.05) {
        v.fail("attribution of player %d stream %u misses %.1f%% of its wall "
               "time", p, tl.stream, err * 100);
      }
      for (const Stamp& s : tl.stamps) {
        if (s.kind != StampKind::kEnter && s.kind != StampKind::kExit) continue;
        Arrival& a = arrivals[{tl.stream, s.round}];
        if (s.kind == StampKind::kEnter) {
          a.first_enter = a.count == 0 ? s.ns : std::min(a.first_enter, s.ns);
          a.last_enter = a.count == 0 ? s.ns : std::max(a.last_enter, s.ns);
          ++a.count;
        } else {
          a.first_exit =
              a.first_exit == 0 ? s.ns : std::min(a.first_exit, s.ns);
        }
      }
    }
  }
  std::vector<double> release_lag;
  std::vector<double> arrival_spread;
  for (const auto& [key, a] : arrivals) {
    if (a.count != static_cast<int>(players)) continue;
    release_lag.push_back(static_cast<double>(a.first_exit - a.last_enter) /
                          1e3);
    arrival_spread.push_back(
        static_cast<double>(a.last_enter - a.first_enter) / 1e3);
  }

  // Per-player sums over the traced segment.
  FieldCounters ops;
  CommCounters sent;
  std::vector<double> refill_ms;
  std::vector<double> expose_us;
  std::vector<double> join_wait_ms;
  double occupancy = 0;
  for (int p = 0; p < kN; ++p) {
    if (!honest(w, p)) continue;
    const SegmentLog& s = tcp.logs[static_cast<std::size_t>(p)].segs[1];
    ops += s.ops;
    sent += s.sent;
    refill_ms.insert(refill_ms.end(), s.refill_ms.begin(), s.refill_ms.end());
    expose_us.insert(expose_us.end(), s.expose_us.begin(), s.expose_us.end());
    for (const auto& b : s.batch_times) {
      const double in_flight = static_cast<double>(b.join_ns - b.launch_ns);
      occupancy += in_flight / static_cast<double>(seg.t1_ns - seg.t0_ns);
      const auto it = stream_wall.find({p, b.stream});
      const double active =
          it == stream_wall.end() ? 0.0 : static_cast<double>(it->second);
      join_wait_ms.push_back((in_flight - active) / 1e6);
    }
  }

  const NetDelta net = net_delta(seg);
  const bool draw = w.kind == Kind::kDraw;
  const bool pipelined = !draw;
  const auto ratio = [](auto a, auto b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  };
  // Totals per coin, and per honest player per coin.
  const auto per_coin = [&](auto x) { return static_cast<double>(x) / coins; };
  const auto per_player = [&](auto x) { return per_coin(x) / players; };
  // A percentile where the workload has the quantity, 0 elsewhere.
  const auto pct = [](bool has, const std::vector<double>& v, double q,
                      const char* what) {
    return has ? require(percentile(v, q), what) : 0.0;
  };
  std::vector<Metric> out = {
      {"net.release_lag_us.p50", pct(true, release_lag, 0.5, "lag"), "us"},
      {"net.release_lag_us.p99", pct(true, release_lag, 0.99, "lag"), "us"},
      {"net.arrival_spread_us.p50", pct(true, arrival_spread, 0.5, "spread"),
       "us"},
      {"net.sync_wait_frac", ratio(waited, charged), "ratio"},
      {"net.rounds_per_coin", per_player(sent.rounds), "rounds/coin"},
      {"net.msgs_per_coin", per_coin(sent.messages), "msgs/coin"},
      {"net.proto_bytes_per_coin", per_coin(sent.bytes), "B"},
      {"net.frames_per_coin", per_coin(net.tx_frames), "frames/coin"},
      {"net.framing_overhead", ratio(net.tx_bytes, sent.bytes), "ratio"},
      {"net.threads", static_cast<double>(seg.threads), "count"},
      {"net.stale", static_cast<double>(net.stale), "count"},
      {"net.decode_rejections", static_cast<double>(net.decode), "count"},
      {"net.lapsed_frames", static_cast<double>(net.lapsed), "count"},
      {"net.reconnects", static_cast<double>(net.reconnects), "count"},
      {"gf.adds_per_coin", per_player(ops.adds), "ops/coin"},
      {"gf.muls_per_coin", per_player(ops.muls), "ops/coin"},
      {"gf.invs_per_coin", per_player(ops.invs), "ops/coin"},
      {"poly.interpolations_per_coin", per_player(ops.interpolations),
       "ops/coin"},
  };
  for (const std::string& name : span_metrics()) {
    out.push_back(
        {name + ".self_us_per_coin", per_player(self_ns[name]) / 1e3, "us"});
    out.push_back(
        {name + ".wait_us_per_coin", per_player(wait_ns[name]) / 1e3, "us"});
  }
  for (const auto& [name, ns] : self_ns) {
    if (std::find(span_metrics().begin(), span_metrics().end(), name) ==
        span_metrics().end()) {
      std::fprintf(stderr, "dprbg_bench: unlisted span %s self %.3f us/coin\n",
                   name.c_str(), per_player(ns) / 1e3);
    }
  }
  out.insert(
      out.end(),
      {
          {"coin.ba_iterations_per_batch", ratio(leader_spans, deal_spans),
           "iter/batch"},
          {"coin.seed_coins_per_batch", ratio(ref.seed_coins, ref.batches),
           "coins/batch"},
          {"coin.pipeline_occupancy", occupancy / players, "batches"},
          {"coin.join_wait_ms.p50", pct(pipelined, join_wait_ms, 0.5, "join"),
           "ms"},
          {"dprbg.refill_ms.p50", pct(draw, refill_ms, 0.5, "refill"), "ms"},
          {"dprbg.refill_ms.p99", pct(draw, refill_ms, 0.99, "refill"), "ms"},
          {"dprbg.expose_us.p50", pct(draw, expose_us, 0.5, "expose"), "us"},
          {"dprbg.refills_per_kcoin", draw ? per_coin(ref.batches) * 1e3 : 0.0,
           "refills/kcoin"},
          {"trace.overhead_frac", 1.0 - traced_rate / base_rate, "ratio"},
          {"trace.attribution_err_max", worst, "ratio"},
      });
  return out;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-40s %18.6f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", v);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + num +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int run(const Args& args) {
  const Workload* wp = find_workload(args.workload);
  if (wp == nullptr) {
    std::fprintf(stderr, "dprbg_bench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  const Workload& w = *wp;
  const double seconds = args.seconds > 0 ? args.seconds : args.smoke ? 3 : 24;

  // The oracle: the simulator replays warm-up + oracle requests. Every TCP
  // pass runs the same seed, so every pass is checked against it.
  const std::uint64_t ledger_at = w.warmup + w.oracle;
  Pass sim(w, args.seed, {{.seconds = 1e6, .limit = w.oracle}}, ledger_at);
  run_sim_pass(sim);
  std::size_t replayed = 0;
  for (const PlayerLog& log : sim.logs) {
    replayed = std::max(replayed, log.full.size());
  }
  Verdict verdict;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const auto tcp_pass = [&](Pass& p) {
    p.full_cap = replayed;
    std::vector<TcpStats> final_stats;
    const double setup = run_tcp_pass(p, final_stats);
    check_oracle(sim, p, verdict);
    check_agreement(w, p, verdict);
    if (w.crash < 0) check_clean_transport(final_stats, verdict);
    return setup;
  };
  const auto count = [&](const Pass& p) {
    for (const SegmentLog& s :
         p.logs[static_cast<std::size_t>(first_honest(w))].segs) {
      attempted += s.requests;
      failed += s.failed;
    }
  };

  std::vector<Metric> metrics;
  if (args.trace) {
    // The tracer keeps every event in memory, so only the last few seconds
    // are traced; the untraced rest is the reference for its overhead.
    // The traced segment runs long enough for 1,000 pooled refill samples
    // (one refill per ~60 coins, six or seven players) or 1,000 pipelined
    // rounds (~13 per batch).
    const double traced = std::min(4.0, seconds / 2);
    const std::uint64_t minimum = w.kind == Kind::kDraw ? 12000 : 100;
    Pass tcp(w, args.seed,
             {{.seconds = seconds - traced, .minimum = w.oracle},
              {.seconds = traced, .traced = true, .minimum = minimum}},
             ledger_at);
    tcp_pass(tcp);
    count(tcp);
    metrics = per_layer(w, tcp, verdict);
  } else {
    // On a shared VM the host's speed can wander by 10-20% from second to
    // second, and the first mesh of a process can run at half speed for up
    // to a second, so the run is split over fresh-mesh passes and reports
    // their medians. Every pass makes the same number of requests: the
    // program holds some memory per request (a departed peer's buffered
    // bundles, per-stream transport state), and a pass sized by the clock
    // would make peak_rss_mb follow the host's speed. Passes run while one
    // more, as long as the longest so far, still fits in `seconds`.
    //
    // peak_rss_mb is the process's peak at the end of the first pass: one
    // mesh running one pass, as a user's process would. Each later mesh
    // leaves glibc's per-thread arenas more fragmented (on mint-m4096-d4,
    // ~5 MB of freed heap per pass that malloc_trim cannot hand back), so a
    // peak over all passes would follow the pass count.
    const int min_passes = args.smoke ? 1 : 3;
    const int max_passes = args.smoke ? 1 : 64;
    const std::int64_t start_ns = now_ns();
    const auto budget_ns = static_cast<std::int64_t>(seconds * 1e9);
    std::int64_t longest_ns = 0;
    std::vector<PassNumbers> numbers;
    double first_pass_rss_mb = 0;
    // Hand the oracle's freed heap back to the system before the first mesh.
    malloc_trim(0);
    for (int i = 0; i < max_passes; ++i) {
      if (i >= min_passes && now_ns() - start_ns + longest_ns > budget_ns) {
        break;
      }
      const std::int64_t pass_start_ns = now_ns();
      Pass tcp(w, args.seed, {{.seconds = 1e6, .limit = w.pass_requests}},
               ledger_at);
      const double setup = tcp_pass(tcp);
      count(tcp);
      numbers.push_back(pass_numbers(w, tcp, setup));
      const PassNumbers& n = numbers.back();
      std::fprintf(stderr,
                   "dprbg_bench: pass %d: %.1f coins/s, p50 %.1f us, p99 %.1f "
                   "us, set-up %.4f s, peak RSS so far %.1f MB\n",
                   i, n.coins_per_s, n.p50_us, n.p99_us, n.setup_s,
                   peak_rss_mb());
      longest_ns = std::max(longest_ns, now_ns() - pass_start_ns);
      if (i == 0) first_pass_rss_mb = peak_rss_mb();
    }
    metrics = end_to_end(numbers, first_pass_rss_mb);  }
  print_result(verdict.ok(), attempted, failed, metrics);
  return verdict.ok() ? 0 : 1;
}

}  // namespace
}  // namespace dprbg::bench

int main(int argc, char** argv) {
  dprbg::bench::Args args;
  if (!dprbg::bench::parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: dprbg_bench --workload=NAME [--seed=N] "
                 "[--seconds=X] [--trace] [--smoke]\nworkloads:");
    for (const auto& w : dprbg::bench::workloads()) {
      std::fprintf(stderr, " %.*s", static_cast<int>(w.name.size()),
                   w.name.data());
    }
    std::fputc('\n', stderr);
    return 2;
  }
  try {
    return dprbg::bench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dprbg_bench: %s\n", e.what());
    return 1;
  }
}
