// Tests of the benchmark's own logic: the tail-percentile rule, time
// attribution over synthetic stamps and spans, and the TimedIo decorator's
// endpoint contract and thread safety.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "attribution.h"
#include "coin/coin_pipeline.h"
#include "dprbg/coin_pool.h"
#include "dprbg/trusted_dealer.h"
#include "gf/gf2.h"
#include "net/cluster.h"
#include "net/tcp_cluster.h"
#include "timed_io.h"

namespace dprbg::bench {
namespace {

static_assert(NetEndpoint<TimedIo<TcpPartyIo>>);
static_assert(NetEndpoint<TimedIo<PartyIo>>);

TEST(Percentile, RefusesTailWithFewerThanTenSamplesBeyond) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  ASSERT_TRUE(percentile(v, 0.99).has_value());
  EXPECT_EQ(*percentile(v, 0.99), 990.0);  // exactly 10 samples beyond
  EXPECT_EQ(*percentile(v, 0.5), 500.0);
  v.pop_back();  // 999 samples: only 9 beyond the p99 rank
  EXPECT_FALSE(percentile(v, 0.99).has_value());
  EXPECT_TRUE(percentile(v, 0.9).has_value());
  EXPECT_FALSE(percentile({}, 0.5).has_value());
  EXPECT_FALSE(percentile(std::vector<double>(10, 1.0), 0.5).has_value());
}

Stamp at(std::int64_t ns, StampKind kind, std::uint64_t round = 0) {
  return Stamp{ns, round, kind};
}

TEST(Attribution, NestedSpansChargeTheInnermost) {
  using K = StampKind;
  const std::vector<Stamp> stamps = {
      at(0, K::kBegin),          at(10, K::kFirstSend, 0),
      at(15, K::kEnter, 0),      at(40, K::kExit, 0),
      at(50, K::kFirstSend, 1),  at(55, K::kEnter, 1),
      at(90, K::kExit, 1),       at(100, K::kEnd, 2),
  };
  const std::vector<SpanRec> spans = {{"p.inner", 1, 2, 1},
                                      {"p.outer", 0, 2, 2}};
  const StreamCharges c = attribute_stream(stamps, spans, {});
  EXPECT_EQ(c.self_ns.at("p.outer"), 10 + 5 + 10);  // pre-send + post of r0
  EXPECT_EQ(c.wait_ns.at("p.outer"), 25);
  EXPECT_EQ(c.self_ns.at("p.inner"), 5 + 10);  // pre-send + post of r1
  EXPECT_EQ(c.wait_ns.at("p.inner"), 35);
  EXPECT_EQ(c.sync_wait_ns, 60);
  EXPECT_EQ(c.charged_ns, 100);
  EXPECT_EQ(c.wall_ns, 100);
  EXPECT_EQ(attribution_error(c.charged_ns, c.wall_ns), 0.0);
}

TEST(Attribution, ZeroRoundSpansGetTheFirstSendTheyMake) {
  using K = StampKind;
  // Round 0: a zero-round deal span makes the first send, then an expose
  // span syncs. Round 1 has no send; a zero-round graph span sits in the
  // gap before it and a BA span syncs it.
  const std::vector<Stamp> stamps = {
      at(0, K::kBegin),      at(20, K::kFirstSend, 0), at(30, K::kEnter, 0),
      at(50, K::kExit, 0),   at(70, K::kEnter, 1),     at(80, K::kExit, 1),
      at(90, K::kEnd, 2),
  };
  const std::vector<SpanRec> spans = {{"p.deal", 0, 0, 3},
                                      {"p.expose", 0, 1, 4},
                                      {"p.graph", 1, 1, 5},
                                      {"p.ba", 1, 2, 6}};
  const std::map<std::uint64_t, std::uint64_t> first_send = {{0, 2}};
  const StreamCharges c = attribute_stream(stamps, spans, first_send);
  EXPECT_EQ(c.self_ns.at("p.deal"), 30);
  EXPECT_EQ(c.wait_ns.count("p.deal"), 0u);
  EXPECT_EQ(c.wait_ns.at("p.expose"), 20);
  EXPECT_EQ(c.self_ns.at("p.expose"), 20);  // post-processing of round 0
  EXPECT_EQ(c.self_ns.count("p.graph"), 0u);
  EXPECT_EQ(c.wait_ns.at("p.ba"), 10);
  EXPECT_EQ(c.self_ns.at("p.ba"), 10);
  EXPECT_EQ(c.charged_ns, c.wall_ns);

  // Without the send's sequence number the pre-send time falls back to
  // the span covering round 0.
  const StreamCharges plain = attribute_stream(stamps, spans, {});
  EXPECT_EQ(plain.self_ns.count("p.deal"), 0u);
  EXPECT_EQ(plain.self_ns.at("p.expose"), 30 + 20);
}

TEST(Attribution, PipelinedStreamsAreChargedSeparately) {
  using K = StampKind;
  // The driver's root stream is parked in the pipeline call while two
  // batch streams overlap in time.
  const std::vector<Stamp> root = {at(0, K::kBegin), at(5, K::kCall),
                                   at(95, K::kReturn), at(100, K::kEnd)};
  const std::vector<Stamp> s1 = {at(10, K::kBegin), at(12, K::kFirstSend, 0),
                                 at(20, K::kEnter, 0), at(50, K::kExit, 0),
                                 at(60, K::kEnd, 1)};
  const std::vector<Stamp> s2 = {at(30, K::kBegin), at(31, K::kFirstSend, 0),
                                 at(40, K::kEnter, 0), at(70, K::kExit, 0),
                                 at(90, K::kEnd, 1)};
  const StreamCharges r = attribute_stream(root, {}, {});
  EXPECT_EQ(r.wait_ns.at(kDriver), 90);
  EXPECT_EQ(r.self_ns.at(kDriver), 10);
  EXPECT_EQ(r.sync_wait_ns, 0);

  // Interleaved sequence numbers: each stream only sees its own spans.
  const StreamCharges c1 =
      attribute_stream(s1, {{"b.round", 0, 1, 7}}, {{0, 5}});
  const StreamCharges c2 =
      attribute_stream(s2, {{"b.round", 0, 1, 8}}, {{0, 6}});
  EXPECT_EQ(c1.self_ns.at("b.round"), 10 + 10);
  EXPECT_EQ(c1.wait_ns.at("b.round"), 30);
  EXPECT_EQ(c1.charged_ns, c1.wall_ns);
  EXPECT_EQ(c2.self_ns.at("b.round"), 10 + 20);
  EXPECT_EQ(c2.wait_ns.at("b.round"), 30);
  EXPECT_EQ(c2.charged_ns, c2.wall_ns);

  // A stream whose end was never stamped has no wall time and fails the
  // sum gate.
  const StreamCharges broken =
      attribute_stream({s1.begin(), s1.end() - 1}, {}, {});
  EXPECT_EQ(broken.charged_ns, 40);
  EXPECT_EQ(attribution_error(broken.charged_ns, broken.wall_ns), 1.0);
}

// A minimal endpoint whose instance() is thread-safe, as the transports'
// are.
class FakeIo {
 public:
  FakeIo() : rng_(1, 0) {}
  [[nodiscard]] int id() const { return 0; }
  [[nodiscard]] int n() const { return 1; }
  [[nodiscard]] int t() const { return 0; }
  [[nodiscard]] Chacha& rng() { return rng_; }
  [[nodiscard]] std::uint32_t stream() const { return stream_; }
  [[nodiscard]] std::uint32_t committee() const { return 0; }
  FakeIo& instance(std::uint32_t batch) {
    if (batch == 0 || batch == stream_) return *this;
    FakeIo& root = root_ == nullptr ? *this : *root_;
    std::lock_guard lk(root.mu_);
    auto& slot = root.children_[batch];
    if (slot == nullptr) {
      slot = std::make_unique<FakeIo>();
      slot->stream_ = batch;
      slot->root_ = &root;
    }
    return *slot;
  }
  void send(int, std::uint32_t, std::vector<std::uint8_t>) {
    ++sent_.messages;
  }
  void send_all(std::uint32_t, const std::vector<std::uint8_t>&) {
    ++sent_.messages;
  }
  const Inbox& sync() {
    ++sent_.rounds;
    return inbox_;
  }
  [[nodiscard]] const Inbox& inbox() const { return inbox_; }
  void note_decode_failure(int) {}
  [[nodiscard]] const CommCounters& sent() const { return sent_; }
  [[nodiscard]] std::uint64_t rounds() const { return sent_.rounds; }

 private:
  Chacha rng_;
  std::uint32_t stream_ = 0;
  FakeIo* root_ = nullptr;
  std::mutex mu_;
  std::map<std::uint32_t, std::unique_ptr<FakeIo>> children_;
  Inbox inbox_;
  CommCounters sent_;
};

TEST(TimedIo, ConcurrentInstanceCallsReturnStableWrappers) {
  FakeIo raw;
  std::atomic<bool> stamping{true};
  TimedIo<FakeIo> io(raw, stamping);
  constexpr int kThreads = 8;
  constexpr std::uint32_t kStreams = 32;
  std::vector<std::vector<TimedIo<FakeIo>*>> seen(
      kThreads, std::vector<TimedIo<FakeIo>*>(kStreams + 1, nullptr));
  std::vector<std::thread> threads;
  for (int th = 0; th < kThreads; ++th) {
    threads.emplace_back([&, th] {
      for (std::uint32_t k = 0; k < kStreams; ++k) {
        // Threads walk the streams in different orders, and half of them
        // go through a child wrapper instead of the root.
        const std::uint32_t b =
            1 + (k * 7 + static_cast<std::uint32_t>(th)) % kStreams;
        TimedIo<FakeIo>& via = th % 2 == 0 ? io : io.instance(1);
        TimedIo<FakeIo>& w = via.instance(b);
        seen[static_cast<std::size_t>(th)][b] = &w;
        EXPECT_EQ(w.stream(), b);
      }
    });
  }
  for (auto& t : threads) t.join();
  for (std::uint32_t b = 1; b <= kStreams; ++b) {
    for (int th = 1; th < kThreads; ++th) {
      EXPECT_EQ(seen[static_cast<std::size_t>(th)][b], seen[0][b]) << b;
    }
    EXPECT_EQ(&io.instance(b), seen[0][b]);
  }
  // Every stream was opened by a worker thread that has exited, so each
  // carries a begin and an end stamp.
  const std::vector<Timeline> tls = io.take_timelines();
  ASSERT_EQ(tls.size(), kStreams + 1);
  for (const Timeline& tl : tls) {
    if (tl.stream == 0) continue;
    ASSERT_EQ(tl.stamps.size(), 2u) << tl.stream;
    EXPECT_EQ(tl.stamps.front().kind, StampKind::kBegin);
    EXPECT_EQ(tl.stamps.back().kind, StampKind::kEnd);
  }
}

TEST(TimedIo, WrappedPipelineOverLoopbackMatchesAndIsFullyCharged) {
  using F = GF2_64;
  const int n = 7, t = 1;
  const std::uint64_t seed = 4242;
  const unsigned m = 3, batches = 3;
  auto genesis = trusted_dealer_coins<F>(n, t, 4 * batches + 8, seed);
  std::atomic<bool> stamping{true};
  std::vector<PipelineResult<F>> plain(n), timed(n);
  std::vector<std::vector<Timeline>> timelines(n);

  const auto run = [&](bool wrap, std::vector<PipelineResult<F>>& out) {
    TcpLoopback loop(n, t, seed);
    ASSERT_TRUE(loop.start());
    std::vector<TcpCluster::Program> programs;
    for (int i = 0; i < n; ++i) {
      programs.push_back([&, wrap](TcpPartyIo& raw) {
        CoinPool<F> pool;
        for (const auto& c : genesis[static_cast<std::size_t>(raw.id())]) {
          pool.add(c);
        }
        PipelineOptions opts;
        opts.depth = 2;
        auto& slot = out[static_cast<std::size_t>(raw.id())];
        if (!wrap) {
          slot = pipelined_coin_gen<F>(raw, m, pool, batches, opts);
          return;
        }
        TimedIo<TcpPartyIo> io(raw, stamping);
        io.mark(StampKind::kBegin);
        io.mark(StampKind::kCall);
        slot = pipelined_coin_gen<F>(io, m, pool, batches, opts);
        io.mark(StampKind::kReturn);
        io.mark(StampKind::kEnd);
        timelines[static_cast<std::size_t>(raw.id())] = io.take_timelines();
      });
    }
    loop.run(std::move(programs));
  };
  run(false, plain);
  run(true, timed);

  for (int i = 0; i < n; ++i) {
    const auto& a = plain[static_cast<std::size_t>(i)];
    const auto& b = timed[static_cast<std::size_t>(i)];
    ASSERT_EQ(a.batches.size(), b.batches.size());
    for (std::size_t k = 0; k < a.batches.size(); ++k) {
      EXPECT_TRUE(b.batches[k].success);
      EXPECT_EQ(a.batches[k].coin_shares, b.batches[k].coin_shares);
      EXPECT_EQ(a.batches[k].clique, b.batches[k].clique);
    }
    const auto& tls = timelines[static_cast<std::size_t>(i)];
    ASSERT_EQ(tls.size(), 1u + batches);
    for (const Timeline& tl : tls) {
      const StreamCharges c = attribute_stream(tl.stamps, {}, {});
      EXPECT_GT(c.wall_ns, 0) << "player " << i << " stream " << tl.stream;
      EXPECT_EQ(c.charged_ns, c.wall_ns);
      if (tl.stream != 0) {
        EXPECT_GT(c.sync_wait_ns, 0);
      }
    }
  }
}

}  // namespace
}  // namespace dprbg::bench
