// dprbg_node: one player of the distributed beacon as a real process.
//
// Runs the pipelined Coin-Gen stack (trusted-dealer genesis -> depth-D
// pipelined Coin-Gen -> Coin-Expose per minted coin) over the TCP
// transport (net/tcp_cluster.h), one process per player. Every node of a
// deployment prints the SAME beacon lines in the same order — the
// multi-process smoke gate in tools/check.sh asserts exactly that across
// three local processes.
//
// Usage:
//   dprbg_node --roster=FILE --id=N [options]
//
// The roster file lists one "host:port" per line (player id = line
// index, '#' comments and blank lines skipped); every node must be
// started with an identical file — the handshake validates a hash of it.
//
// Options:
//   --roster=FILE   player list (required)
//   --id=N          this process's player id in [0, n) (required)
//   --listen=H:P    bind override (e.g. 0.0.0.0:9000 while the roster
//                   carries the LAN address peers dial)
//   --t=N           fault bound (default (n-1)/6, the Coin-Gen model)
//   --seed=N        shared determinism seed (default 4242)
//   --m=N           coins per batch (default 4)
//   --batches=N     Coin-Gen batches to mint (default 2)
//   --depth=N       pipeline depth, >= 1 (default 2)
//   --connect-wait-ms=N  mesh bring-up timeout (default 15000)
//   --metrics=FILE  enable telemetry; write the registry snapshot here
//
// Output: one "BEACON b=<batch> h=<coin> v=<hex16>" line per exposed
// coin on stdout; diagnostics on stderr. Exit 0 on success, 3 when the
// listen address cannot be bound (e.g. the port is in use), 2 when the
// mesh never came up, 1 on any protocol failure.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "coin/coin_expose.h"
#include "coin/coin_pipeline.h"
#include "common/telemetry.h"
#include "dprbg/coin_pool.h"
#include "dprbg/trusted_dealer.h"
#include "gf/gf2.h"
#include "net/tcp_cluster.h"

namespace dprbg {
namespace {

using F = GF2_64;

struct NodeConfig {
  std::string roster_path;
  int id = -1;
  std::string listen_override;  // "host:port", empty = bind roster[id]
  int t = -1;                   // -1: derive (n-1)/6
  std::uint64_t seed = 4242;
  unsigned m = 4;
  unsigned batches = 2;
  unsigned depth = 2;
  unsigned connect_wait_ms = 15000;
  std::string metrics_path;
};

std::optional<TcpNodeAddr> parse_host_port(std::string_view s) {
  const auto colon = s.rfind(':');
  if (colon == std::string_view::npos || colon == 0 ||
      colon + 1 >= s.size()) {
    return std::nullopt;
  }
  const int port = std::atoi(std::string(s.substr(colon + 1)).c_str());
  if (port <= 0 || port > 0xFFFF) return std::nullopt;
  return TcpNodeAddr{std::string(s.substr(0, colon)),
                     static_cast<std::uint16_t>(port)};
}

std::optional<std::vector<TcpNodeAddr>> read_roster(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::vector<TcpNodeAddr> roster;
  std::string line;
  while (std::getline(in, line)) {
    // Trim whitespace; skip blanks and '#' comments.
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    const auto last = line.find_last_not_of(" \t\r");
    const std::string_view entry(line.data() + first, last - first + 1);
    if (entry[0] == '#') continue;
    const auto addr = parse_host_port(entry);
    if (!addr) {
      std::fprintf(stderr, "dprbg_node: bad roster line: %s\n",
                   std::string(entry).c_str());
      return std::nullopt;
    }
    roster.push_back(*addr);
  }
  if (roster.empty()) return std::nullopt;
  return roster;
}

bool parse_flags(int argc, char** argv, NodeConfig* cfg) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    const auto val = [&](std::string_view prefix) -> const char* {
      return arg.rfind(prefix, 0) == 0 ? argv[i] + prefix.size() : nullptr;
    };
    if (const char* v = val("--roster=")) {
      cfg->roster_path = v;
    } else if (const char* v = val("--id=")) {
      cfg->id = std::atoi(v);
    } else if (const char* v = val("--listen=")) {
      cfg->listen_override = v;
    } else if (const char* v = val("--t=")) {
      cfg->t = std::atoi(v);
    } else if (const char* v = val("--seed=")) {
      cfg->seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = val("--m=")) {
      cfg->m = static_cast<unsigned>(std::atoi(v));
    } else if (const char* v = val("--batches=")) {
      cfg->batches = static_cast<unsigned>(std::atoi(v));
    } else if (const char* v = val("--depth=")) {
      cfg->depth = static_cast<unsigned>(std::atoi(v));
    } else if (const char* v = val("--connect-wait-ms=")) {
      cfg->connect_wait_ms = static_cast<unsigned>(std::atoi(v));
    } else if (const char* v = val("--metrics=")) {
      cfg->metrics_path = v;
    } else {
      std::fprintf(stderr, "dprbg_node: unknown flag: %s\n",
                   std::string(arg).c_str());
      return false;
    }
  }
  return !cfg->roster_path.empty() && cfg->id >= 0 && cfg->depth >= 1;
}

}  // namespace
}  // namespace dprbg

int main(int argc, char** argv) {
  using namespace dprbg;
  NodeConfig cfg;
  if (!parse_flags(argc, argv, &cfg)) {
    std::fprintf(stderr,
                 "usage: dprbg_node --roster=FILE --id=N [--listen=H:P] "
                 "[--t=N] [--seed=N] [--m=N] [--batches=N] [--depth=N] "
                 "[--connect-wait-ms=N] [--metrics=FILE]\n");
    return 1;
  }
  const auto roster = read_roster(cfg.roster_path);
  if (!roster) {
    std::fprintf(stderr, "dprbg_node: cannot read roster %s\n",
                 cfg.roster_path.c_str());
    return 1;
  }
  const int n = static_cast<int>(roster->size());
  const int t = cfg.t >= 0 ? cfg.t : (n - 1) / 6;
  if (cfg.id >= n || t < 0 || t >= n) {
    std::fprintf(stderr, "dprbg_node: --id=%d / --t=%d out of range for n=%d\n",
                 cfg.id, t, n);
    return 1;
  }
  if (!cfg.metrics_path.empty()) set_telemetry_enabled(true);

  TcpClusterOptions opts;
  opts.start_timeout_ms = cfg.connect_wait_ms;
  // The address this node binds: the --listen override, else its own
  // roster entry.
  TcpNodeAddr bind_addr = (*roster)[static_cast<std::size_t>(cfg.id)];
  if (!cfg.listen_override.empty()) {
    const auto override_addr = parse_host_port(cfg.listen_override);
    if (!override_addr) {
      std::fprintf(stderr, "dprbg_node: bad --listen=%s\n",
                   cfg.listen_override.c_str());
      return 1;
    }
    bind_addr = *override_addr;
  }
  std::string err;
  opts.listen_fd = tcp_listen_socket(bind_addr.host, bind_addr.port, &err);
  if (opts.listen_fd < 0) {
    std::fprintf(stderr, "dprbg_node: cannot listen on %s:%u: %s\n",
                 bind_addr.host.c_str(), static_cast<unsigned>(bind_addr.port),
                 err.c_str());
    return 3;
  }

  TcpCluster node(cfg.id, n, t, cfg.seed, *roster, opts);
  std::fprintf(stderr, "dprbg_node: id=%d n=%d t=%d listening on %s:%u...\n",
               cfg.id, n, t, bind_addr.host.c_str(),
               static_cast<unsigned>(bind_addr.port));
  if (!node.start()) {
    const TcpStats st = node.stats();
    std::fprintf(stderr,
                 "dprbg_node: mesh did not come up within %u ms "
                 "(accept rejects: malformed=%llu proto=%llu roster=%llu "
                 "bad_id=%llu)\n",
                 cfg.connect_wait_ms,
                 static_cast<unsigned long long>(st.accept_rejects[0]),
                 static_cast<unsigned long long>(st.accept_rejects[1]),
                 static_cast<unsigned long long>(st.accept_rejects[2]),
                 static_cast<unsigned long long>(st.accept_rejects[3]));
    return 2;
  }
  std::fprintf(stderr, "dprbg_node: mesh up (port %u), minting %u batches\n",
               node.listen_port(), cfg.batches);

  // Genesis sizing mirrors bench/pipeline: every batch's full charge
  // (challenge + kLeaderCoins leader draws), with slack.
  auto genesis = trusted_dealer_coins<F>(
      n, t, static_cast<int>((1 + kLeaderCoins) * cfg.batches + 8),
      cfg.seed);

  bool ok = true;
  unsigned exposed = 0;
  node.run([&](TcpPartyIo& io) {
    CoinPool<F> pool;
    for (auto& c : genesis[static_cast<std::size_t>(io.id())]) {
      pool.add(std::move(c));
    }
    PipelineOptions popts;
    popts.depth = cfg.depth;
    const PipelineResult<F> result =
        pipelined_coin_gen<F>(io, cfg.m, pool, cfg.batches, popts);
    // Expose every minted coin on the root stream, lockstep — every
    // node's rng/transcript is identical, so every node prints the same
    // values in the same order (this IS the beacon output).
    unsigned instance = 0;
    for (std::size_t b = 0; b < result.batches.size(); ++b) {
      const CoinGenResult<F>& batch = result.batches[b];
      if (!batch.success) {
        std::fprintf(stderr, "dprbg_node: batch %zu failed Coin-Gen\n", b);
        ok = false;
        continue;
      }
      const auto sealed = batch.sealed_coins(static_cast<unsigned>(t));
      for (std::size_t h = 0; h < sealed.size(); ++h) {
        const std::optional<F> coin = coin_expose<F>(io, sealed[h], instance++);
        if (!coin) {
          std::fprintf(stderr,
                       "dprbg_node: batch %zu coin %zu failed expose\n", b, h);
          ok = false;
          continue;
        }
        std::printf("BEACON b=%zu h=%zu v=%016llx\n", b, h,
                    static_cast<unsigned long long>(coin->to_uint()));
        ++exposed;
      }
    }
    std::fflush(stdout);
  });

  const TcpStats st = node.stats();
  std::uint64_t connects = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t rx = 0;
  std::uint64_t tx = 0;
  for (const auto& p : st.peers) {
    connects += p.connects;
    reconnects += p.reconnects;
    rx += p.rx_bytes;
    tx += p.tx_bytes;
  }
  std::fprintf(stderr,
               "dprbg_node: done, %u coins exposed; comm msgs=%llu "
               "bytes=%llu rounds=%llu; tcp connects=%llu reconnects=%llu "
               "tx=%llu rx=%llu stale=%llu decode=%llu\n",
               exposed, static_cast<unsigned long long>(node.comm().messages),
               static_cast<unsigned long long>(node.comm().bytes),
               static_cast<unsigned long long>(node.comm().rounds),
               static_cast<unsigned long long>(connects),
               static_cast<unsigned long long>(reconnects),
               static_cast<unsigned long long>(tx),
               static_cast<unsigned long long>(rx),
               static_cast<unsigned long long>(st.stale_rejections),
               static_cast<unsigned long long>(st.decode_rejections));
  if (!cfg.metrics_path.empty()) {
    node.publish_telemetry();
    if (!metrics().snapshot().write_json_file(cfg.metrics_path)) {
      std::fprintf(stderr, "dprbg_node: cannot write metrics to %s\n",
                   cfg.metrics_path.c_str());
      ok = false;
    }
  }
  return (ok && exposed > 0) ? 0 : 1;
}
