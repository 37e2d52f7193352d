// simulate — configurable D-PRBG simulation driver.
//
// A small operational tool: run a full bootstrapped coin-generation
// campaign with chosen parameters and print a machine-readable summary.
//
//   ./build/examples/simulate --n 13 --t 2 --coins 100 --batch 32
//       --seed 42 --faulty 3,9 --adversary noise
//
// Flags (all optional):
//   --n N           players (default 7; must be >= 6t+1)
//   --t T           fault threshold (default (n-1)/6)
//   --coins C       shared coins to draw (default 50)
//   --batch M       Coin-Gen batch size (default 32)
//   --reserve R     pool refill threshold (default: derived from n and t,
//                   see leader_draw_budget in dprbg/dprbg.h)
//   --seed S        deterministic run seed (default 1)
//   --faulty a,b,c  faulty player ids (default none)
//   --adversary X   crash | noise | replay   (default crash)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "dprbg/dprbg.h"
#include "dprbg/trusted_dealer.h"
#include "gf/gf2.h"
#include "net/adversary.h"
#include "net/cluster.h"

using namespace dprbg;

namespace {

struct Options {
  int n = 7;
  int t = -1;  // derived from n when unset
  int coins = 50;
  unsigned batch = 32;
  std::optional<unsigned> reserve;  // unset: DPrbg's derived default
  std::uint64_t seed = 1;
  std::vector<int> faulty;
  std::string adversary = "crash";
};

std::vector<int> parse_id_list(const char* s) {
  std::vector<int> out;
  const std::string str(s);
  std::size_t pos = 0;
  while (pos < str.size()) {
    std::size_t comma = str.find(',', pos);
    if (comma == std::string::npos) comma = str.size();
    out.push_back(std::atoi(str.substr(pos, comma - pos).c_str()));
    pos = comma + 1;
  }
  return out;
}

std::optional<Options> parse_args(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--n") == 0) {
      const char* v = need_value("--n");
      if (!v) return std::nullopt;
      opts.n = std::atoi(v);
    } else if (std::strcmp(argv[i], "--t") == 0) {
      const char* v = need_value("--t");
      if (!v) return std::nullopt;
      opts.t = std::atoi(v);
    } else if (std::strcmp(argv[i], "--coins") == 0) {
      const char* v = need_value("--coins");
      if (!v) return std::nullopt;
      opts.coins = std::atoi(v);
    } else if (std::strcmp(argv[i], "--batch") == 0) {
      const char* v = need_value("--batch");
      if (!v) return std::nullopt;
      opts.batch = static_cast<unsigned>(std::atoi(v));
    } else if (std::strcmp(argv[i], "--reserve") == 0) {
      const char* v = need_value("--reserve");
      if (!v) return std::nullopt;
      opts.reserve = static_cast<unsigned>(std::atoi(v));
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      const char* v = need_value("--seed");
      if (!v) return std::nullopt;
      opts.seed = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(argv[i], "--faulty") == 0) {
      const char* v = need_value("--faulty");
      if (!v) return std::nullopt;
      opts.faulty = parse_id_list(v);
    } else if (std::strcmp(argv[i], "--adversary") == 0) {
      const char* v = need_value("--adversary");
      if (!v) return std::nullopt;
      opts.adversary = v;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return std::nullopt;
    }
  }
  if (opts.t < 0) opts.t = (opts.n - 1) / 6;
  if (opts.n < 6 * opts.t + 1) {
    std::fprintf(stderr, "model requires n >= 6t+1 (got n=%d, t=%d)\n",
                 opts.n, opts.t);
    return std::nullopt;
  }
  if (static_cast<int>(opts.faulty.size()) > opts.t) {
    std::fprintf(stderr, "at most t=%d faulty players\n", opts.t);
    return std::nullopt;
  }
  for (int id : opts.faulty) {
    if (id < 0 || id >= opts.n) {
      std::fprintf(stderr, "faulty id %d out of range\n", id);
      return std::nullopt;
    }
  }
  return opts;
}

}  // namespace

int main(int argc, char** argv) {
  using F = GF2_64;
  const auto parsed = parse_args(argc, argv);
  if (!parsed) return 2;
  const Options& o = *parsed;

  Cluster::Program adversary;
  if (o.adversary == "crash") {
    adversary = crash_adversary();
  } else if (o.adversary == "noise") {
    adversary = noise_adversary(/*rounds=*/o.coins * 20);
  } else if (o.adversary == "replay") {
    adversary = replay_adversary(/*rounds=*/o.coins * 20);
  } else {
    std::fprintf(stderr, "unknown adversary: %s\n", o.adversary.c_str());
    return 2;
  }

  auto genesis = trusted_dealer_coins<F>(o.n, o.t, 8, o.seed);
  std::vector<std::vector<std::optional<F>>> streams(o.n);
  std::uint64_t refills = 0, seed_spent = 0;
  std::size_t pool_left = 0;

  std::vector<bool> is_faulty(o.n, false);
  for (int id : o.faulty) is_faulty[id] = true;
  int reporter = -1;  // highest-id honest player
  for (int i = o.n - 1; i >= 0; --i) {
    if (!is_faulty[i]) {
      reporter = i;
      break;
    }
  }

  Cluster cluster(o.n, o.t, o.seed);
  cluster.run(
      [&](PartyIo& io) {
        DPrbg<F>::Options popts;
        popts.batch_size = o.batch;
        popts.reserve = o.reserve;
        DPrbg<F> prbg(popts, genesis[io.id()]);
        for (int c = 0; c < o.coins; ++c) {
          streams[io.id()].push_back(prbg.next_coin(io));
        }
        if (io.id() == reporter) {
          refills = prbg.refills();
          seed_spent = prbg.seed_coins_spent_refilling();
          pool_left = prbg.pool_remaining();
        }
      },
      o.faulty, adversary);

  // Verify unanimity among honest players.
  bool unanimous = true;
  int delivered = 0;
  for (int c = 0; c < o.coins; ++c) {
    if (!streams[reporter][c].has_value()) continue;
    ++delivered;
    for (int i = 0; i < o.n; ++i) {
      if (is_faulty[i]) continue;
      if (!streams[i][c].has_value() ||
          *streams[i][c] != *streams[reporter][c]) {
        unanimous = false;
      }
    }
  }

  std::printf("{\n");
  std::printf("  \"n\": %d, \"t\": %d, \"seed\": %llu,\n", o.n, o.t,
              static_cast<unsigned long long>(o.seed));
  std::printf("  \"adversary\": \"%s\", \"faulty\": %zu,\n",
              o.adversary.c_str(), o.faulty.size());
  std::printf("  \"coins_requested\": %d, \"coins_delivered\": %d,\n",
              o.coins, delivered);
  std::printf("  \"unanimous\": %s,\n", unanimous ? "true" : "false");
  std::printf("  \"refills\": %llu, \"seed_coins_spent\": %llu, "
              "\"pool_remaining\": %zu,\n",
              static_cast<unsigned long long>(refills),
              static_cast<unsigned long long>(seed_spent), pool_left);
  std::printf("  \"rounds\": %llu, \"messages\": %llu, \"bytes\": %llu\n",
              static_cast<unsigned long long>(cluster.comm().rounds),
              static_cast<unsigned long long>(cluster.comm().messages),
              static_cast<unsigned long long>(cluster.comm().bytes));
  std::printf("}\n");
  return (unanimous && delivered == o.coins) ? 0 : 1;
}
