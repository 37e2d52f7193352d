// Tests for the real-socket transport (net/tcp_cluster.h): the
// determinism contract — protocols over loopback TcpClusters produce
// BIT-FOR-BIT the same outputs and comm ledgers as over the simulated
// Cluster at the same (n, t, seed) — plus the transport-only behaviors
// the simulator has no analog for: reconnect with backoff, mid-run peer
// kill (lapse latching), and handshake rejection of misconfigured or
// hostile dialers.

#include "net/tcp_cluster.h"

#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "coin/coin_pipeline.h"
#include "common/serial.h"
#include "dprbg/coin_pool.h"
#include "dprbg/trusted_dealer.h"
#include "gf/gf2.h"
#include "gradecast/gradecast.h"
#include "net/cluster.h"
#include "net/peer.h"
#include "vss/vss.h"

namespace dprbg {
namespace {

using F = GF2_64;

constexpr std::uint32_t kTag = make_tag(ProtoId::kApp, 0, 0);

bool wait_until(const std::function<bool()>& pred, unsigned timeout_ms = 5000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return true;
}

std::string render_inbox(const Inbox& inbox) {
  std::ostringstream os;
  for (const Msg& m : inbox.all()) {
    os << m.from << "/" << m.tag << ":";
    for (std::uint8_t b : m.body) os << static_cast<int>(b) << ".";
    os << " ";
  }
  return os.str();
}

// One run's observable surface, per player: everything a protocol could
// act on plus the comm ledger. Filled identically by both backends.
struct EchoRun {
  std::vector<std::vector<std::string>> transcript;  // [player][round]
  std::vector<CommCounters> sent;                    // [player]
};

// The echo program parameterized over the backend handle: every player
// broadcasts a distinct byte per round and one extra unicast to player
// (id+1) % n, so inboxes exercise both send paths and the canonical
// sort. `rounds_for(id)` lets a player return early (the drop test).
// `after_sync(id, r)`, when set, runs after each of the player's rounds.
using RoundHook = std::function<void(int id, int round)>;

template <typename Io>
void echo_program(Io& io, int rounds, EchoRun& run,
                  const RoundHook& after_sync = {}) {
  for (int r = 0; r < rounds; ++r) {
    io.send_all(kTag, {static_cast<std::uint8_t>(io.id() * 16 + r)});
    io.send((io.id() + 1) % io.n(), kTag + 1,
            {static_cast<std::uint8_t>(0xE0 + r)});
    run.transcript[static_cast<std::size_t>(io.id())]
                  [static_cast<std::size_t>(r)] = render_inbox(io.sync());
    if (after_sync) after_sync(io.id(), r);
  }
  run.sent[static_cast<std::size_t>(io.id())] = io.sent();
}

EchoRun run_sim_echo(int n, int t, std::uint64_t seed,
                     const std::vector<int>& rounds_per_player) {
  EchoRun run;
  const int max_rounds =
      *std::max_element(rounds_per_player.begin(), rounds_per_player.end());
  run.transcript.assign(static_cast<std::size_t>(n),
                        std::vector<std::string>(
                            static_cast<std::size_t>(max_rounds)));
  run.sent.assign(static_cast<std::size_t>(n), {});
  Cluster cluster(n, t, seed);
  std::vector<Cluster::Program> programs;
  for (int i = 0; i < n; ++i) {
    programs.push_back([&run, &rounds_per_player](PartyIo& io) {
      echo_program(io, rounds_per_player[static_cast<std::size_t>(io.id())],
                   run);
    });
  }
  cluster.run(programs);
  return run;
}

EchoRun run_tcp_echo(TcpLoopback& loop, int n,
                     const std::vector<int>& rounds_per_player,
                     const RoundHook& after_sync = {}) {
  EchoRun run;
  const int max_rounds =
      *std::max_element(rounds_per_player.begin(), rounds_per_player.end());
  run.transcript.assign(static_cast<std::size_t>(n),
                        std::vector<std::string>(
                            static_cast<std::size_t>(max_rounds)));
  run.sent.assign(static_cast<std::size_t>(n), {});
  std::vector<TcpCluster::Program> programs;
  for (int i = 0; i < n; ++i) {
    programs.push_back([&run, &rounds_per_player, &after_sync](TcpPartyIo& io) {
      echo_program(io, rounds_per_player[static_cast<std::size_t>(io.id())],
                   run, after_sync);
    });
  }
  loop.run(std::move(programs));
  return run;
}

void expect_echo_runs_equal(const EchoRun& sim, const EchoRun& tcp, int n) {
  for (int p = 0; p < n; ++p) {
    ASSERT_EQ(sim.transcript[static_cast<std::size_t>(p)].size(),
              tcp.transcript[static_cast<std::size_t>(p)].size());
    for (std::size_t r = 0; r < sim.transcript[static_cast<std::size_t>(p)].size();
         ++r) {
      EXPECT_EQ(sim.transcript[static_cast<std::size_t>(p)][r],
                tcp.transcript[static_cast<std::size_t>(p)][r])
          << "player " << p << " round " << r;
    }
    EXPECT_EQ(sim.sent[static_cast<std::size_t>(p)].messages,
              tcp.sent[static_cast<std::size_t>(p)].messages)
        << "player " << p;
    EXPECT_EQ(sim.sent[static_cast<std::size_t>(p)].bytes,
              tcp.sent[static_cast<std::size_t>(p)].bytes)
        << "player " << p;
    EXPECT_EQ(sim.sent[static_cast<std::size_t>(p)].rounds,
              tcp.sent[static_cast<std::size_t>(p)].rounds)
        << "player " << p;
  }
}

TEST(TcpClusterTest, EchoMatchesSimulatedClusterBitForBit) {
  const int n = 4, t = 1, rounds = 5;
  const std::uint64_t seed = 97;
  const std::vector<int> uniform(static_cast<std::size_t>(n), rounds);
  const EchoRun sim = run_sim_echo(n, t, seed, uniform);

  TcpLoopback loop(n, t, seed);
  ASSERT_TRUE(loop.start());
  const EchoRun tcp = run_tcp_echo(loop, n, uniform);
  expect_echo_runs_equal(sim, tcp, n);

  // Zero transport-level anomalies in a clean run. A peer's Bye leaves
  // with its run() but is read by our reactor asynchronously.
  for (int i = 0; i < n; ++i) {
    EXPECT_TRUE(wait_until([&] {
      const TcpStats st = loop.node(i).stats();
      for (int j = 0; j < n; ++j) {
        if (j != i && !st.peers[static_cast<std::size_t>(j)].bye) return false;
      }
      return true;
    })) << "node " << i;
    const TcpStats st = loop.node(i).stats();
    EXPECT_EQ(st.frame_decode_failures, 0u);
    EXPECT_EQ(st.lapsed_frames, 0u);
    EXPECT_EQ(st.stale_rejections, 0u);
    EXPECT_EQ(st.foreign_rejections, 0u);
    EXPECT_EQ(st.recv_pending, 0u);
    for (int j = 0; j < n; ++j) {
      if (j == i) continue;
      EXPECT_TRUE(st.peers[static_cast<std::size_t>(j)].bye)
          << "node " << i << " peer " << j;
      EXPECT_FALSE(st.peers[static_cast<std::size_t>(j)].lapsed);
      EXPECT_EQ(st.peers[static_cast<std::size_t>(j)].reconnects, 0u);
    }
  }
}

TEST(TcpClusterTest, EarlyReturnMatchesSimulatedDrop) {
  // Player 2's program finishes after 2 rounds while everyone else runs
  // 5: over TCP that is a kBye, in the simulator a drop — the remaining
  // rounds must look identical on both backends.
  const int n = 4, t = 1;
  const std::uint64_t seed = 55;
  std::vector<int> rounds(static_cast<std::size_t>(n), 5);
  rounds[2] = 2;
  const EchoRun sim = run_sim_echo(n, t, seed, rounds);

  TcpLoopback loop(n, t, seed);
  ASSERT_TRUE(loop.start());
  const EchoRun tcp = run_tcp_echo(loop, n, rounds);
  expect_echo_runs_equal(sim, tcp, n);

  // The others saw player 2 finish cleanly (Bye), not lapse.
  const TcpStats st = loop.node(0).stats();
  EXPECT_TRUE(st.peers[2].bye);
  EXPECT_FALSE(st.peers[2].lapsed);
  // Once its Bye is in, survivors stop shipping it round bundles: it gets
  // strictly fewer frames (its Bye included) than the rounds they ran.
  for (int i : {0, 1, 3}) {
    EXPECT_LT(loop.node(i).stats().peers[2].tx_frames,
              static_cast<std::uint64_t>(rounds[static_cast<std::size_t>(i)]))
        << "survivor " << i;
  }
}

TEST(TcpClusterTest, VssMatchesSimulatedCluster) {
  const int n = 7, t = 2;
  const std::uint64_t seed = 11;
  auto coins = trusted_dealer_coins<F>(n, t, 1, seed);
  Chacha dealer_rng(seed, 777);
  const auto poly = Polynomial<F>::random(/*degree=*/2, dealer_rng);

  auto program = [&](auto& io, std::vector<std::optional<VssOutcome<F>>>& out,
                     std::vector<CommCounters>& sent) {
    std::optional<Polynomial<F>> mine;
    if (io.id() == 0) mine = poly;
    out[static_cast<std::size_t>(io.id())] = vss_share_and_verify<F>(
        io, /*dealer=*/0, t, mine, coins[static_cast<std::size_t>(io.id())][0]);
    sent[static_cast<std::size_t>(io.id())] = io.sent();
  };

  std::vector<std::optional<VssOutcome<F>>> sim_out(n), tcp_out(n);
  std::vector<CommCounters> sim_sent(n), tcp_sent(n);

  Cluster sim(n, t, seed);
  sim.run(std::vector<Cluster::Program>(
      static_cast<std::size_t>(n),
      [&](PartyIo& io) { program(io, sim_out, sim_sent); }));

  TcpLoopback loop(n, t, seed);
  ASSERT_TRUE(loop.start());
  std::vector<TcpCluster::Program> programs;
  for (int i = 0; i < n; ++i) {
    programs.push_back(
        [&](TcpPartyIo& io) { program(io, tcp_out, tcp_sent); });
  }
  loop.run(std::move(programs));

  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(sim_out[static_cast<std::size_t>(i)].has_value());
    ASSERT_TRUE(tcp_out[static_cast<std::size_t>(i)].has_value());
    EXPECT_EQ(sim_out[static_cast<std::size_t>(i)]->accepted,
              tcp_out[static_cast<std::size_t>(i)]->accepted)
        << "player " << i;
    EXPECT_EQ(sim_out[static_cast<std::size_t>(i)]->share,
              tcp_out[static_cast<std::size_t>(i)]->share)
        << "player " << i;
    EXPECT_EQ(sim_out[static_cast<std::size_t>(i)]->challenge,
              tcp_out[static_cast<std::size_t>(i)]->challenge)
        << "player " << i;
    EXPECT_EQ(sim_sent[static_cast<std::size_t>(i)].bytes,
              tcp_sent[static_cast<std::size_t>(i)].bytes)
        << "player " << i;
    EXPECT_EQ(sim_sent[static_cast<std::size_t>(i)].messages,
              tcp_sent[static_cast<std::size_t>(i)].messages);
    EXPECT_EQ(sim_sent[static_cast<std::size_t>(i)].rounds,
              tcp_sent[static_cast<std::size_t>(i)].rounds);
    EXPECT_TRUE(tcp_out[static_cast<std::size_t>(i)]->accepted);
  }
}

TEST(TcpClusterTest, GradeCastMatchesSimulatedCluster) {
  const int n = 7, t = 2;
  const std::uint64_t seed = 12;
  const std::vector<std::uint8_t> value = {0xAA, 0xBB};

  auto program = [&](auto& io, std::vector<GradeCastResult>& out) {
    out[static_cast<std::size_t>(io.id())] =
        grade_cast(io, /*sender=*/3, value);
  };

  std::vector<GradeCastResult> sim_out(n), tcp_out(n);
  Cluster sim(n, t, seed);
  sim.run(std::vector<Cluster::Program>(
      static_cast<std::size_t>(n),
      [&](PartyIo& io) { program(io, sim_out); }));

  TcpLoopback loop(n, t, seed);
  ASSERT_TRUE(loop.start());
  std::vector<TcpCluster::Program> programs;
  for (int i = 0; i < n; ++i) {
    programs.push_back([&](TcpPartyIo& io) { program(io, tcp_out); });
  }
  loop.run(std::move(programs));

  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(sim_out[static_cast<std::size_t>(i)].confidence,
              tcp_out[static_cast<std::size_t>(i)].confidence)
        << "player " << i;
    EXPECT_EQ(sim_out[static_cast<std::size_t>(i)].value,
              tcp_out[static_cast<std::size_t>(i)].value)
        << "player " << i;
    EXPECT_EQ(tcp_out[static_cast<std::size_t>(i)].confidence, 2);
  }
}

// A decode failure is counted, traced and scored by one path shared by
// both transports, so a player whose echo and support bodies do not
// decode must leave the same ledgers and the same net/decode_reject trace
// points behind on either one — each point stamped with the rounds the
// reporting handle has completed.
TEST(TcpClusterTest, DecodeRejectionsMatchSimulatedClusterWithTracing) {
  const int n = 7, t = 2;
  const std::uint64_t seed = 13;
  const int garbler = 5;
  const std::vector<std::uint8_t> value = {0xC0, 0xDE};

  struct Outcome {
    std::vector<GradeCastResult> results;
    std::vector<CommCounters> sent;
    std::vector<std::string> decode_points;  // sorted multiset
  };
  // Everyone but `garbler` grade-casts player 1's value. The garbler sits
  // out round 1, then sends one-byte echo and support bodies: a varint
  // with its continuation bit set and nothing after it.
  auto program = [&](auto& io, Outcome& out) {
    const auto me = static_cast<std::size_t>(io.id());
    if (io.id() == garbler) {
      const std::vector<std::uint8_t> junk = {0xFF};
      io.sync();
      io.send_all(make_tag(ProtoId::kGradeCast, 0, 1), junk);
      io.sync();
      io.send_all(make_tag(ProtoId::kGradeCast, 0, 2), junk);
      io.sync();
    } else {
      out.results[me] = grade_cast(io, /*sender=*/1, value);
    }
    out.sent[me] = io.sent();
  };
  const auto fresh = [n] {
    Outcome o;
    o.results.resize(static_cast<std::size_t>(n));
    o.sent.resize(static_cast<std::size_t>(n));
    return o;
  };
  const auto collect_decode_points = [](Outcome& out) {
    for (const TraceEvent& ev : tracer().events()) {
      if (ev.protocol != "net" || ev.phase != "decode_reject") continue;
      out.decode_points.push_back(
          std::to_string(ev.player) + " " + std::to_string(ev.batch) + " " +
          std::to_string(ev.round_begin) + " " + ev.detail);
    }
    std::sort(out.decode_points.begin(), out.decode_points.end());
    tracer().set_enabled(false);
    tracer().clear();
  };

  Outcome sim_out = fresh();
  Cluster sim(n, t, seed);
  tracer().clear();
  tracer().set_enabled(true);
  sim.run(std::vector<Cluster::Program>(
      static_cast<std::size_t>(n),
      [&](PartyIo& io) { program(io, sim_out); }));
  collect_decode_points(sim_out);

  Outcome tcp_out = fresh();
  TcpLoopback loop(n, t, seed);
  ASSERT_TRUE(loop.start());
  std::vector<TcpCluster::Program> programs;
  for (int i = 0; i < n; ++i) {
    programs.push_back([&](TcpPartyIo& io) { program(io, tcp_out); });
  }
  tracer().clear();
  tracer().set_enabled(true);
  loop.run(std::move(programs));
  collect_decode_points(tcp_out);

  std::uint64_t tcp_decode_rejections = 0;
  for (int i = 0; i < n; ++i) {
    tcp_decode_rejections += loop.node(i).stats().decode_rejections;
    const auto u = static_cast<std::size_t>(i);
    EXPECT_EQ(sim_out.results[u].confidence, tcp_out.results[u].confidence)
        << "player " << i;
    EXPECT_EQ(sim_out.results[u].value, tcp_out.results[u].value)
        << "player " << i;
    if (i != garbler) {
      EXPECT_EQ(tcp_out.results[u].confidence, 2);
    }
    EXPECT_EQ(sim_out.sent[u].messages, tcp_out.sent[u].messages);
    EXPECT_EQ(sim_out.sent[u].bytes, tcp_out.sent[u].bytes);
    EXPECT_EQ(sim_out.sent[u].rounds, tcp_out.sent[u].rounds);
  }
  // Every other player rejects the garbler's echo batch (round 2) and
  // its support batch (round 3).
  EXPECT_EQ(sim.decode_rejections(), static_cast<std::uint64_t>(2 * (n - 1)));
  EXPECT_EQ(sim.decode_rejections(), tcp_decode_rejections);
  ASSERT_EQ(sim_out.decode_points.size(),
            static_cast<std::size_t>(2 * (n - 1)));
  EXPECT_EQ(sim_out.decode_points, tcp_out.decode_points);
  EXPECT_EQ(sim_out.decode_points.front(), "0 0 2 from=5");
}

// Pipelined Coin-Gen (`batches` batches of M = `m`, up to `depth` in
// flight), which drives several concurrent per-batch streams (instance()
// handles + worker threads) through the TCP demux at once, must equal the
// simulator batch for batch. `on_joined(id)` runs on each player after
// every joined batch.
void expect_pipelined_coin_gen_matches(
    int n, int t, std::uint64_t seed, unsigned depth, unsigned m,
    unsigned batches, const std::function<void(int)>& on_joined = {}) {
  auto genesis = trusted_dealer_coins<F>(n, t, 4 * batches + 8, seed);

  // Per player, the comm ledger of each batch's stream.
  using Ledgers = std::vector<std::vector<CommCounters>>;
  auto program = [&](auto& io, std::vector<PipelineResult<F>>& out,
                     Ledgers& sent, bool hook) {
    CoinPool<F> pool;
    for (const auto& c : genesis[static_cast<std::size_t>(io.id())]) {
      pool.add(c);
    }
    PipelineOptions opts;
    opts.depth = depth;
    if (hook && on_joined) {
      opts.on_batch_joined = [&, id = io.id()](unsigned) { on_joined(id); };
    }
    out[static_cast<std::size_t>(io.id())] =
        pipelined_coin_gen<F>(io, m, pool, batches, opts);
    for (unsigned b = 0; b < batches; ++b) {
      sent[static_cast<std::size_t>(io.id())].push_back(
          io.instance(opts.first_batch_id + b).sent());
    }
  };

  std::vector<PipelineResult<F>> sim_out(n), tcp_out(n);
  Ledgers sim_sent(n), tcp_sent(n);
  Cluster sim(n, t, seed);
  sim.run(std::vector<Cluster::Program>(
      static_cast<std::size_t>(n),
      [&](PartyIo& io) { program(io, sim_out, sim_sent, false); }));

  TcpLoopback loop(n, t, seed);
  ASSERT_TRUE(loop.start());
  std::vector<TcpCluster::Program> programs;
  for (int i = 0; i < n; ++i) {
    programs.push_back(
        [&](TcpPartyIo& io) { program(io, tcp_out, tcp_sent, true); });
  }
  loop.run(std::move(programs));

  for (int i = 0; i < n; ++i) {
    const auto& s = sim_out[static_cast<std::size_t>(i)];
    const auto& c = tcp_out[static_cast<std::size_t>(i)];
    ASSERT_EQ(s.batches.size(), c.batches.size()) << "player " << i;
    for (std::size_t b = 0; b < s.batches.size(); ++b) {
      const CoinGenResult<F>& sb = s.batches[b];
      const CoinGenResult<F>& cb = c.batches[b];
      EXPECT_EQ(sb.success, cb.success) << "player " << i << " batch " << b;
      EXPECT_EQ(sb.clique, cb.clique) << "player " << i << " batch " << b;
      EXPECT_EQ(sb.summed_dealers, cb.summed_dealers);
      EXPECT_EQ(sb.qualified, cb.qualified);
      EXPECT_EQ(sb.coin_shares, cb.coin_shares)
          << "player " << i << " batch " << b;
      EXPECT_EQ(sb.seed_coins_used, cb.seed_coins_used);
      EXPECT_EQ(sb.iterations, cb.iterations);
      EXPECT_TRUE(cb.success) << "player " << i << " batch " << b;
      const CommCounters& sl = sim_sent[static_cast<std::size_t>(i)][b];
      const CommCounters& cl = tcp_sent[static_cast<std::size_t>(i)][b];
      EXPECT_EQ(sl.messages, cl.messages) << "player " << i << " batch " << b;
      EXPECT_EQ(sl.bytes, cl.bytes) << "player " << i << " batch " << b;
      EXPECT_EQ(sl.rounds, cl.rounds) << "player " << i << " batch " << b;
    }
  }
}

TEST(TcpClusterTest, PipelinedCoinGenMatchesSimulatedCluster) {
  expect_pipelined_coin_gen_matches(/*n=*/7, /*t=*/1, /*seed=*/4242,
                                    /*depth=*/2, /*m=*/3, /*batches=*/2);
}

TEST(TcpClusterTest, DeepPipelineHandsTheReaderRoleOn) {
  // Depth 4 with long batches keeps three or four streams per node in
  // sync() at once, so the reader role changes hands between streams
  // every round; a handoff that woke the wrong stream (or none) hangs.
  for (const std::uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_pipelined_coin_gen_matches(/*n=*/7, /*t=*/1, seed, /*depth=*/4,
                                      /*m=*/1024, /*batches=*/16);
  }
}

TEST(TcpClusterTest, SeverBeforeRunReconnectsTransparently) {
  const int n = 4, t = 1, rounds = 3;
  const std::uint64_t seed = 77;
  const std::vector<int> uniform(static_cast<std::size_t>(n), rounds);
  const EchoRun sim = run_sim_echo(n, t, seed, uniform);

  TcpClusterOptions opts;
  opts.backoff_initial_ms = 5;
  TcpLoopback loop(n, t, seed, opts);
  ASSERT_TRUE(loop.start());

  // Cut the (0, 1) link before the run starts (node 1 is the dialer).
  // No run is active, so nothing lapses — the dialer just reconnects.
  loop.node(1).sever_peer(0);
  ASSERT_TRUE(wait_until([&] {
    const TcpStats a = loop.node(1).stats();
    const TcpStats b = loop.node(0).stats();
    return a.peers[0].reconnects >= 1 && a.peers[0].up && b.peers[1].up;
  })) << "reconnect did not complete";

  const EchoRun tcp = run_tcp_echo(loop, n, uniform);
  expect_echo_runs_equal(sim, tcp, n);
  EXPECT_GE(loop.node(1).stats().peers[0].reconnects, 1u);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (j == i) continue;
      EXPECT_FALSE(loop.node(i).stats().peers[j].lapsed);
    }
  }
}

TEST(TcpClusterTest, PeerKillDuringRunLapsesAndOthersComplete) {
  // Node 0 cuts its link to node 3 mid-run: both ends latch the other as
  // lapsed for the rest of the run, barriers stop waiting across that
  // link, and every program still runs to completion — no hang, no
  // crash, even though the dialer reconnects the transport underneath.
  const int n = 4, t = 1, rounds = 6;
  TcpLoopback loop(n, t, /*seed=*/13);
  ASSERT_TRUE(loop.start());

  std::vector<int> completed(static_cast<std::size_t>(n), 0);
  std::vector<TcpCluster::Program> programs;
  for (int i = 0; i < n; ++i) {
    programs.push_back([&, i](TcpPartyIo& io) {
      for (int r = 0; r < rounds; ++r) {
        if (i == 0 && r == 2) loop.node(0).sever_peer(3);
        io.send_all(kTag, {static_cast<std::uint8_t>(r)});
        io.sync();
      }
      completed[static_cast<std::size_t>(i)] = 1;
    });
  }
  loop.run(std::move(programs));

  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(completed[static_cast<std::size_t>(i)], 1) << "player " << i;
  }
  EXPECT_TRUE(loop.node(0).stats().peers[3].lapsed);
  EXPECT_TRUE(loop.node(3).stats().peers[0].lapsed);
  // The untouched links never lapsed.
  EXPECT_FALSE(loop.node(1).stats().peers[2].lapsed);
  EXPECT_FALSE(loop.node(2).stats().peers[1].lapsed);
}

TEST(TcpClusterTest, RoundFramesAreReadOnTheSyncThread) {
  // A single-stream run: the blocked sync() reads its own round's frames.
  // Only frames that land before a node's run() begins (at most the
  // first round's) are left to the reactor.
  const int n = 4, t = 1, rounds = 30;
  TcpLoopback loop(n, t, /*seed=*/5);
  ASSERT_TRUE(loop.start());
  run_tcp_echo(loop, n, std::vector<int>(static_cast<std::size_t>(n), rounds));
  const std::uint64_t received = static_cast<std::uint64_t>(rounds) * (n - 1);
  for (int i = 0; i < n; ++i) {
    const std::uint64_t inline_frames = loop.node(i).stats().rx_frames_inline;
    EXPECT_LE(inline_frames, received) << "node " << i;
    EXPECT_GE(inline_frames * 10, received * 9) << "node " << i;
  }
}

TEST(TcpClusterTest, SeverReleasesLeaderWaitingOnSilentPeer) {
  // Node 3 stays connected but silent in round 2 while node 0's sync()
  // leads, blocked on node 3's frame. Cutting the link from another
  // thread must wake that leader: node 3 lapses and the round completes.
  const int n = 4, t = 1, rounds = 4;
  TcpLoopback loop(n, t, /*seed=*/21);
  ASSERT_TRUE(loop.start());

  using Clock = std::chrono::steady_clock;
  std::atomic<bool> node0_in_round2{false};
  std::atomic<bool> node0_done_round2{false};
  Clock::time_point returned{};
  std::vector<TcpCluster::Program> programs;
  for (int i = 0; i < n; ++i) {
    programs.push_back([&, i](TcpPartyIo& io) {
      for (int r = 0; r < rounds; ++r) {
        if (i == 3 && r == 2) {
          wait_until([&] { return node0_done_round2.load(); }, 5000);
        }
        io.send_all(kTag, {static_cast<std::uint8_t>(r)});
        if (i == 0 && r == 2) node0_in_round2 = true;
        io.sync();
        if (i == 0 && r == 2) {
          returned = Clock::now();
          node0_done_round2 = true;
        }
      }
    });
  }
  Clock::time_point severed{};
  std::thread cutter([&] {
    wait_until([&] { return node0_in_round2.load(); });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    severed = Clock::now();
    loop.node(0).sever_peer(3);
  });
  loop.run(std::move(programs));
  cutter.join();

  ASSERT_TRUE(node0_done_round2.load());
  EXPECT_LT(returned - severed, std::chrono::seconds(1));
  EXPECT_TRUE(loop.node(0).stats().peers[3].lapsed);
}

// ---------------------------------------------------------------------
// Handshake rejection: raw-socket probes against a live node's listener.
// ---------------------------------------------------------------------

HelloFrame valid_hello_for(const TcpLoopback& loop, int n, int t) {
  HelloFrame h;
  h.proto_version = kTcpProtoVersion;
  h.roster_hash = roster_hash(n, t, loop.roster());
  h.node_id = 1;
  h.n = static_cast<std::uint32_t>(n);
  return h;
}

// Connects to `port` and sends one frame; the listener either rejects
// (closes) or acks. Returns true if the probe socket opened and wrote.
bool probe(std::uint16_t port, FrameType type,
           const std::vector<std::uint8_t>& payload) {
  const int fd = tcp_connect_socket("127.0.0.1", port, 2000);
  if (fd < 0) return false;
  const bool ok = tcp_write_all(fd, frame_bytes(type, payload));
  ::close(fd);
  return ok;
}

TEST(TcpClusterTest, ListenerRejectsBadHandshakesByReason) {
  const int n = 2, t = 0;
  TcpLoopback loop(n, t, /*seed=*/3);
  ASSERT_TRUE(loop.start());
  const std::uint16_t port = loop.node(0).listen_port();
  const HelloFrame good = valid_hello_for(loop, n, t);
  const auto rejects = [&](HandshakeReject why) {
    return loop.node(0).stats().accept_rejects[static_cast<int>(why)];
  };

  // A framing-protocol-version-1 node: its Hello carries an extra
  // envelope wire-version byte, a 22-byte payload. That byte is trailing
  // garbage to the current layout, so the Hello is refused as malformed
  // before its version is ever compared.
  {
    ByteWriter w;
    w.u32(kTcpMagic);
    w.u8(1);  // proto_version
    w.u8(1);  // envelope wire version
    w.u64(good.roster_hash);
    w.u32(good.node_id);
    w.u32(good.n);
    const auto old_hello = std::move(w).take();
    ASSERT_EQ(old_hello.size(), 22u);
    ASSERT_TRUE(probe(port, FrameType::kHello, old_hello));
  }
  ASSERT_TRUE(wait_until(
      [&] { return rejects(HandshakeReject::kMalformed) >= 1; }))
      << "pre-change Hello not rejected";
  EXPECT_EQ(rejects(HandshakeReject::kMalformed), 1u);
  EXPECT_EQ(rejects(HandshakeReject::kProtoVersion), 0u);

  // Wrong framing-protocol version.
  HelloFrame h = good;
  h.proto_version = kTcpProtoVersion + 1;
  ASSERT_TRUE(probe(port, FrameType::kHello, encode_hello(h)));

  // Wrong roster hash (a fleet configured with a different player list).
  h = good;
  h.roster_hash ^= 0x1234;
  ASSERT_TRUE(probe(port, FrameType::kHello, encode_hello(h)));

  // Bad ids: claiming the listener's own id (wrong dial direction),
  // an out-of-range id, and a mismatched n.
  h = good;
  h.node_id = 0;
  ASSERT_TRUE(probe(port, FrameType::kHello, encode_hello(h)));
  h = good;
  h.node_id = 9;
  ASSERT_TRUE(probe(port, FrameType::kHello, encode_hello(h)));
  h = good;
  h.n = 99;
  ASSERT_TRUE(probe(port, FrameType::kHello, encode_hello(h)));

  // Malformed: garbage payload, and a non-Hello first frame.
  ASSERT_TRUE(probe(port, FrameType::kHello, {0x01, 0x02, 0x03}));
  ASSERT_TRUE(probe(port, FrameType::kRound, encode_hello(good)));

  ASSERT_TRUE(wait_until([&] {
    return rejects(HandshakeReject::kProtoVersion) >= 1 &&
           rejects(HandshakeReject::kRosterHash) >= 1 &&
           rejects(HandshakeReject::kBadId) >= 3 &&
           rejects(HandshakeReject::kMalformed) >= 3;
  })) << "handshake rejects not all counted";

  // None of this disturbed the real mesh: the run still works.
  std::vector<int> done(static_cast<std::size_t>(n), 0);
  std::vector<TcpCluster::Program> programs;
  for (int i = 0; i < n; ++i) {
    programs.push_back([&done](TcpPartyIo& io) {
      io.send_all(kTag, {0x42});
      const Inbox& inbox = io.sync();
      EXPECT_EQ(inbox.all().size(), 2u);
      done[static_cast<std::size_t>(io.id())] = 1;
    });
  }
  loop.run(std::move(programs));
  EXPECT_EQ(done[0], 1);
  EXPECT_EQ(done[1], 1);
}

TEST(TcpClusterTest, StartFailsClosedAgainstMismatchedRoster) {
  // Two nodes configured with different rosters (same ports, different
  // claimed t): every handshake fails the hash check on both ends and
  // start() times out instead of building a half-trusted mesh.
  std::string err;
  const int fd0 = tcp_listen_socket("127.0.0.1", 0, &err);
  const int fd1 = tcp_listen_socket("127.0.0.1", 0, &err);
  ASSERT_GE(fd0, 0);
  ASSERT_GE(fd1, 0);
  const std::vector<TcpNodeAddr> roster = {
      {"127.0.0.1", tcp_local_port(fd0)},
      {"127.0.0.1", tcp_local_port(fd1)},
  };
  TcpClusterOptions opts;
  opts.start_timeout_ms = 600;
  opts.backoff_initial_ms = 5;
  TcpClusterOptions opts0 = opts;
  opts0.listen_fd = fd0;
  TcpClusterOptions opts1 = opts;
  opts1.listen_fd = fd1;

  // Same roster bytes, but node 1 believes t=1 while node 0 says t=0:
  // the (n, t, roster) hash differs.
  TcpCluster a(0, 2, /*t=*/0, /*seed=*/1, roster, opts0);
  TcpCluster b(1, 2, /*t=*/1, /*seed=*/1, roster, opts1);
  bool a_ok = false, b_ok = false;
  std::thread ta([&] { a_ok = a.start(); });
  std::thread tb([&] { b_ok = b.start(); });
  ta.join();
  tb.join();
  EXPECT_FALSE(a_ok);
  EXPECT_FALSE(b_ok);
  // The listener side counted the reason; the dialer side counted its
  // rejected attempts.
  EXPECT_GE(a.stats().accept_rejects[static_cast<int>(
                HandshakeReject::kRosterHash)],
            1u);
  EXPECT_GE(b.stats().peers[0].handshake_rejects, 1u);
}

TEST(TcpClusterTest, SilentDialerDoesNotStallAccept) {
  // A connection that never sends its Hello holds its own handshake
  // deadline, not the accept path: a real peer that reconnects meanwhile
  // is admitted at once.
  const int n = 4, t = 1, rounds = 3;
  const std::uint64_t seed = 21;
  const std::vector<int> uniform(static_cast<std::size_t>(n), rounds);
  const EchoRun sim = run_sim_echo(n, t, seed, uniform);

  TcpClusterOptions opts;
  opts.handshake_timeout_ms = 5000;
  opts.backoff_initial_ms = 5;
  TcpLoopback loop(n, t, seed, opts);
  ASSERT_TRUE(loop.start());

  const int silent =
      tcp_connect_socket("127.0.0.1", loop.node(0).listen_port(), 2000);
  ASSERT_GE(silent, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));  // accepted

  loop.node(1).sever_peer(0);
  EXPECT_TRUE(wait_until(
      [&] {
        const TcpStats a = loop.node(1).stats();
        const TcpStats b = loop.node(0).stats();
        return a.peers[0].reconnects >= 1 && a.peers[0].up && b.peers[1].up;
      },
      /*timeout_ms=*/1000))
      << "reconnect stalled behind the silent dialer";
  ::close(silent);

  const EchoRun tcp = run_tcp_echo(loop, n, uniform);
  expect_echo_runs_equal(sim, tcp, n);
}

// Threads of this process, from /proc/self/task.
long process_threads() {
  long count = 0;
  for ([[maybe_unused]] const auto& e :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++count;
  }
  return count;
}

TEST(TcpClusterTest, EchoAtThirteenNodesMatchesSimulator) {
  // n = 13 players in one process: one program thread and one reactor
  // per node, plus the test's own thread.
  const int n = 13, t = 2, rounds = 4;
  const std::uint64_t seed = 1313;
  const std::vector<int> uniform(static_cast<std::size_t>(n), rounds);
  const EchoRun sim = run_sim_echo(n, t, seed, uniform);

  TcpLoopback loop(n, t, seed);
  ASSERT_TRUE(loop.start());
  std::atomic<long> peak{0};
  // After player 0's round 1 every program thread is alive: none can
  // finish round 3 before player 0 ships it.
  const EchoRun tcp = run_tcp_echo(loop, n, uniform, [&](int id, int r) {
    if (id == 0 && r == 1) peak = process_threads();
  });
  expect_echo_runs_equal(sim, tcp, n);
  RecordProperty("peak_threads", static_cast<int>(peak.load()));
  EXPECT_GT(peak.load(), n);
  EXPECT_LE(peak.load(), 2 * n + 8);
}

TEST(TcpClusterTest, PipelinedCoinGenAtThirteenNodesMatchesSimulator) {
  // n = 6t + 1 = 13. Depth 2 adds up to two Coin-Gen workers per node on
  // top of the 2n + 8 allowance.
  const int n = 13, t = 2;
  std::atomic<long> peak{0};
  expect_pipelined_coin_gen_matches(
      n, t, /*seed=*/977, /*depth=*/2, /*m=*/3, /*batches=*/2, [&](int) {
        const long now = process_threads();
        long seen = peak.load();
        while (now > seen && !peak.compare_exchange_weak(seen, now)) {
        }
      });
  RecordProperty("peak_threads", static_cast<int>(peak.load()));
  EXPECT_GT(peak.load(), n);
  EXPECT_LE(peak.load(), 2 * n + 8 + 2 * n);
}

// For every ordered pair, what node i counted out to j is exactly what j
// counted in from i (frames and bytes). Bye frames are read
// asynchronously after run() returns, hence the wait.
void expect_tx_matches_peer_rx(TcpLoopback& loop) {
  const int n = loop.n();
  const auto witness_holds = [&] {
    for (int i = 0; i < n; ++i) {
      const TcpStats a = loop.node(i).stats();
      for (int j = 0; j < n; ++j) {
        if (j == i) continue;
        const TcpStats b = loop.node(j).stats();
        const auto& out = a.peers[static_cast<std::size_t>(j)];
        const auto& in = b.peers[static_cast<std::size_t>(i)];
        if (out.tx_frames != in.rx_frames || out.tx_bytes != in.rx_bytes) {
          return false;
        }
      }
    }
    return true;
  };
  ASSERT_TRUE(wait_until(witness_holds));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (j == i) continue;
      const auto out = loop.node(i).stats().peers[static_cast<std::size_t>(j)];
      EXPECT_GT(out.tx_frames, 0u) << i << " -> " << j;
      EXPECT_EQ(out.dropped_frames, 0u) << i << " -> " << j;
    }
  }
}

TEST(TcpClusterTest, TxBytesEqualPeerRxBytesAfterCleanRun) {
  const int n = 4, t = 1, rounds = 5;
  const std::uint64_t seed = 61;
  const std::vector<int> uniform(static_cast<std::size_t>(n), rounds);
  TcpLoopback loop(n, t, seed);
  ASSERT_TRUE(loop.start());
  run_tcp_echo(loop, n, uniform);
  expect_tx_matches_peer_rx(loop);
}

// Both players send the other a bundle far larger than the loopback
// socket buffers in the same round: neither send may block the other,
// and the inboxes must equal the simulator's.
template <typename Io>
void bulk_program(Io& io, std::vector<std::vector<std::string>>& digests) {
  constexpr std::size_t kBody = std::size_t{4} << 20;
  for (int r = 0; r < 2; ++r) {
    std::vector<std::uint8_t> body(kBody);
    for (std::size_t k = 0; k < body.size(); ++k) {
      body[k] = static_cast<std::uint8_t>(k * 131 + io.id() * 7 + r);
    }
    io.send(1 - io.id(), kTag, std::move(body));
    std::uint64_t h = 0xcbf29ce484222325ull;
    std::ostringstream os;
    for (const Msg& m : io.sync().all()) {
      for (std::uint8_t b : m.body) h = (h ^ b) * 0x100000001b3ull;
      os << m.from << "/" << m.tag << ":" << m.body.size() << " ";
    }
    os << std::hex << h;
    digests[static_cast<std::size_t>(io.id())].push_back(os.str());
  }
}

TEST(TcpClusterTest, LargeBundlesBothWaysDrainThroughOutQueue) {
  const int n = 2, t = 0;
  const std::uint64_t seed = 8;
  std::vector<std::vector<std::string>> sim_digest(n), tcp_digest(n);
  Cluster sim(n, t, seed);
  sim.run(std::vector<Cluster::Program>(
      static_cast<std::size_t>(n),
      [&](PartyIo& io) { bulk_program(io, sim_digest); }));

  TcpLoopback loop(n, t, seed);
  ASSERT_TRUE(loop.start());
  loop.run(std::vector<TcpCluster::Program>(
      static_cast<std::size_t>(n),
      [&](TcpPartyIo& io) { bulk_program(io, tcp_digest); }));
  EXPECT_EQ(sim_digest, tcp_digest);
  ASSERT_EQ(tcp_digest[0].size(), 2u);
  expect_tx_matches_peer_rx(loop);
}

}  // namespace
}  // namespace dprbg
