// trace_report: turn a protocol trace (JSONL, common/trace.h schema) into
// the paper's per-phase cost ledger, and diff two traces to catch cost
// regressions.
//
// Usage:
//   trace_report gen <protocol> <out.jsonl> [seed]
//       Run an n=7, t=1 instance of <protocol> (vss | batch-vss | bitgen |
//       coin-gen) with tracing enabled and write the trace. The run is
//       seeded-deterministic: the same seed always produces the same
//       trace (timing excluded — traces carry no wall-clock).
//   trace_report report <trace.jsonl>
//       Aggregate the trace into a per-(protocol, phase) table:
//       rounds per player, field ops, messages, bytes — the shape of
//       Lemmas 2/4/6/8.
//   trace_report diff <old.jsonl> <new.jsonl>
//       Per-phase deltas (new - old); exits 1 when any phase's rounds
//       changed or any op/comm counter grew, so CI can gate on it.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/trace.h"
#include "dprbg/coin_pool.h"
#include "dprbg/trusted_dealer.h"
#include "gf/gf2.h"
#include "net/cluster.h"
#include "coin/bitgen.h"
#include "coin/coin_gen.h"
#include "vss/batch_vss.h"
#include "vss/vss.h"

namespace dprbg {
namespace {

using F = GF2_64;
using bench::fmt;

constexpr int kN = 7;
constexpr unsigned kT = 1;
constexpr unsigned kM = 4;  // batch size for batch protocols

// Runs one traced n=7 instance of `protocol`; returns false for an
// unknown protocol name.
bool run_traced(const std::string& protocol, std::uint64_t seed) {
  auto genesis = trusted_dealer_coins<F>(kN, kT, 8, seed);
  Cluster cluster(kN, static_cast<int>(kT), seed);
  Cluster::Program program;
  if (protocol == "vss") {
    program = [&](PartyIo& io) {
      CoinPool<F> pool;
      for (auto& c : genesis[io.id()]) pool.add(std::move(c));
      std::optional<Polynomial<F>> poly;
      if (io.id() == 0) poly = Polynomial<F>::random(kT, io.rng());
      (void)vss_share_and_verify<F>(io, /*dealer=*/0, kT, poly,
                                    pool.take());
    };
  } else if (protocol == "batch-vss") {
    program = [&](PartyIo& io) {
      CoinPool<F> pool;
      for (auto& c : genesis[io.id()]) pool.add(std::move(c));
      PolyBlock<F> polys;
      if (io.id() == 0) polys = PolyBlock<F>::random(kM, kT, io.rng());
      (void)batch_vss<F>(io, /*dealer=*/0, kT, kM, polys, pool.take());
    };
  } else if (protocol == "bitgen") {
    program = [&](PartyIo& io) {
      CoinPool<F> pool;
      for (auto& c : genesis[io.id()]) pool.add(std::move(c));
      const auto polys = PolyBlock<F>::random(kM, kT, io.rng());
      (void)bit_gen_all<F>(io, polys, kM, kT, pool.take());
    };
  } else if (protocol == "coin-gen") {
    program = [&](PartyIo& io) {
      CoinPool<F> pool;
      for (auto& c : genesis[io.id()]) pool.add(std::move(c));
      (void)coin_gen<F>(io, kM, pool);
    };
  } else {
    return false;
  }
  cluster.run(std::vector<Cluster::Program>(kN, program));
  return true;
}

std::vector<TraceEvent> load(const char* path, bool* ok) {
  std::ifstream is(path);
  *ok = static_cast<bool>(is);
  if (!*ok) {
    std::fprintf(stderr, "trace_report: cannot open %s\n", path);
    return {};
  }
  std::size_t malformed = 0;
  auto events = read_jsonl(is, &malformed);
  if (malformed != 0) {
    std::fprintf(stderr, "trace_report: %zu malformed line(s) in %s\n",
                 malformed, path);
  }
  return events;
}

void print_report(const std::vector<TraceEvent>& events) {
  const auto phases = aggregate_phases(events);
  bench::Table table({"protocol", "phase", "spans", "players", "rounds",
                      "adds", "muls", "invs", "interps", "msgs", "bytes"});
  for (const auto& p : phases) {
    table.row({p.protocol, p.phase, fmt(p.spans), fmt(p.players),
               fmt(p.rounds), fmt(p.ops.adds), fmt(p.ops.muls),
               fmt(p.ops.invs), fmt(p.ops.interpolations),
               fmt(p.comm.messages), fmt(p.comm.bytes)});
  }
  table.print();
  const FaultCounters faults = sum_fault_events(events);
  if (faults.total() != 0) {
    std::printf("\nfault events: %s\n", to_string(faults).c_str());
  }
  std::size_t points = 0;
  std::size_t decode_fails = 0;
  for (const auto& ev : events) {
    if (ev.kind != TraceEventKind::kPoint) continue;
    ++points;
    if (ev.phase == "decode-fail") ++decode_fails;
  }
  std::printf("\n%zu events (%zu point), %zu decode failure(s)\n",
              events.size(), points, decode_fails);
}

// Signed delta as a printable cell ("+12", "-3", "0").
std::string sdelta(std::uint64_t from, std::uint64_t to) {
  const auto d = static_cast<std::int64_t>(to) - static_cast<std::int64_t>(from);
  return d > 0 ? "+" + std::to_string(d) : std::to_string(d);
}

// The paper result each traced protocol's costs implement (the mapping of
// DESIGN.md §Observability, "phase <-> paper" table). A regressed phase
// is annotated with its lemma so the CI failure names the claim at risk.
std::string lemma_for(const std::string& protocol) {
  if (protocol == "vss") return "Fig. 2, Lemma 2";
  if (protocol == "batch-vss") return "Fig. 3, Lemma 4";
  if (protocol == "bitgen") return "Fig. 4, Lemma 6";
  if (protocol == "coin-gen") return "Fig. 5, Lemma 8";
  if (protocol == "coin-expose") return "Fig. 6, §5";
  if (protocol == "gradecast") return "[14] Grade-Cast";
  if (protocol == "phase-king") return "Phase-King BA";
  return "";
}

int print_diff(const std::vector<TraceEvent>& old_events,
               const std::vector<TraceEvent>& new_events) {
  const auto old_phases = aggregate_phases(old_events);
  const auto new_phases = aggregate_phases(new_events);
  auto find = [](const std::vector<PhaseCost>& v, const PhaseCost& key)
      -> const PhaseCost* {
    for (const auto& p : v) {
      if (p.protocol == key.protocol && p.phase == key.phase) return &p;
    }
    return nullptr;
  };

  bench::Table table({"protocol", "phase", "d.rounds", "d.adds", "d.muls",
                      "d.interps", "d.msgs", "d.bytes", "lemma"});
  bool regressed = false;
  std::vector<std::string> at_risk;  // lemmas of regressed phases, deduped
  auto flag = [&](const std::string& protocol) {
    regressed = true;
    const std::string lemma = lemma_for(protocol);
    if (lemma.empty()) return std::string();
    bool seen = false;
    for (const auto& l : at_risk) seen = seen || l == lemma;
    if (!seen) at_risk.push_back(lemma);
    return lemma;
  };
  auto check = [&](const PhaseCost& a, const PhaseCost& b) {
    std::string lemma;
    if (b.rounds != a.rounds || b.ops.adds > a.ops.adds ||
        b.ops.muls > a.ops.muls ||
        b.ops.interpolations > a.ops.interpolations ||
        b.comm.messages > a.comm.messages || b.comm.bytes > a.comm.bytes) {
      lemma = flag(a.protocol);
    }
    table.row({a.protocol, a.phase, sdelta(a.rounds, b.rounds),
               sdelta(a.ops.adds, b.ops.adds),
               sdelta(a.ops.muls, b.ops.muls),
               sdelta(a.ops.interpolations, b.ops.interpolations),
               sdelta(a.comm.messages, b.comm.messages),
               sdelta(a.comm.bytes, b.comm.bytes), lemma});
  };
  for (const auto& a : old_phases) {
    if (const PhaseCost* b = find(new_phases, a)) {
      check(a, *b);
    } else {
      table.row({a.protocol, a.phase, "(removed)"});
    }
  }
  for (const auto& b : new_phases) {
    if (find(old_phases, b) == nullptr) {
      table.row(
          {b.protocol, b.phase, "(new)", "", "", "", "", "", flag(b.protocol)});
    }
  }
  table.print();
  if (regressed) {
    std::string lemmas;
    for (const auto& l : at_risk) {
      if (!lemmas.empty()) lemmas += "; ";
      lemmas += l;
    }
    std::printf("\nREGRESSION: rounds changed or a cost grew%s%s\n",
                lemmas.empty() ? "" : " — claims at risk: ",
                lemmas.c_str());
  } else {
    std::printf("\nno cost regressions\n");
  }
  return regressed ? 1 : 0;
}

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  trace_report gen <vss|batch-vss|bitgen|coin-gen> "
               "<out.jsonl> [seed]\n"
               "  trace_report report <trace.jsonl>\n"
               "  trace_report diff <old.jsonl> <new.jsonl>\n");
  return 2;
}

}  // namespace
}  // namespace dprbg

int main(int argc, char** argv) {
  using namespace dprbg;
  if (argc < 2) return usage();
  const std::string cmd = argv[1];

  if (cmd == "gen" && (argc == 4 || argc == 5)) {
    const std::string protocol = argv[2];
    const std::uint64_t seed =
        argc == 5 ? std::strtoull(argv[4], nullptr, 10) : 42;
    tracer().clear();
    tracer().set_enabled(true);
    if (!run_traced(protocol, seed)) {
      std::fprintf(stderr, "trace_report: unknown protocol %s\n",
                   protocol.c_str());
      return 2;
    }
    tracer().set_enabled(false);
    if (!tracer().write_jsonl_file(argv[3])) {
      std::fprintf(stderr, "trace_report: cannot write %s\n", argv[3]);
      return 1;
    }
    std::printf("wrote %zu events to %s (protocol=%s n=%d t=%u seed=%llu)\n",
                tracer().size(), argv[3], protocol.c_str(), kN, kT,
                static_cast<unsigned long long>(seed));
    return 0;
  }
  if (cmd == "report" && argc == 3) {
    bool ok = false;
    const auto events = load(argv[2], &ok);
    if (!ok) return 1;
    print_report(events);
    return 0;
  }
  if (cmd == "diff" && argc == 4) {
    bool ok_a = false;
    bool ok_b = false;
    const auto a = load(argv[2], &ok_a);
    const auto b = load(argv[3], &ok_b);
    if (!ok_a || !ok_b) return 1;
    return print_diff(a, b);
  }
  return usage();
}
