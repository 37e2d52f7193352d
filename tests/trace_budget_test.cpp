// Cost-regression gates: checked-in per-phase budgets for n=7, t=1 runs
// of VSS, Coin-Expose, Batch-VSS, Bit-Gen, and Coin-Gen, enforced against
// the trace layer's per-phase ledger (common/trace.h).
//
// The budgets ARE the paper's lemmas, made executable:
//   * Lemma 2:  VSS       = 2 rounds (challenge + respond), 2 interps.
//   * Fig. 6:   Coin-Expose = 1 round, 1 interp per coin.
//   * Lemma 4:  Batch-VSS = 2 rounds, 2 interps — independent of M.
//   * Lemma 6:  Bit-Gen   = 2 rounds, interps independent of M.
//   * Lemma 8 / Fig. 5: Coin-Gen = deal(2) + gradecast(3) + per-iteration
//     leader(1) + BA(2(t+1)) rounds, one iteration when leaders are
//     honest — 10 rounds total at t=1.
//
// Round budgets are EXACT (the protocols are synchronous and lockstep;
// any change is a protocol change). Operation and byte budgets allow a
// +/-25% band so harmless refactors (e.g. a different Berlekamp-Welch
// pivot order) pass while a silently inflated lemma cost fails tier-1.
// If a budget fails because you *intentionally* changed a protocol's
// cost, re-measure with `trace_report gen/report` and update the table —
// in the same PR that changes the cost, with a line in EXPERIMENTS.md.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/trace.h"
#include "coin/bitgen.h"
#include "coin/coin_gen.h"
#include "dprbg/coin_pool.h"
#include "dprbg/trusted_dealer.h"
#include "gf/gf2.h"
#include "net/cluster.h"
#include "vss/batch_vss.h"
#include "vss/vss.h"

namespace dprbg {
namespace {

using F = GF2_64;

constexpr int kN = 7;
constexpr unsigned kT = 1;
constexpr unsigned kM = 4;         // batch size (Batch-VSS / Bit-Gen rows)
constexpr std::uint64_t kSeed = 42;  // must match trace_report's default

// One checked-in budget row. Rounds are exact; every other column is the
// expected total across all players and spans of that phase, allowed a
// +/-25% band (0 means "must be 0").
struct PhaseBudget {
  const char* protocol;
  const char* phase;
  std::uint64_t rounds;   // exact, max over players
  std::uint64_t adds;
  std::uint64_t muls;
  std::uint64_t interps;
  std::uint64_t msgs;
  std::uint64_t bytes;
};

void expect_within_band(const char* what, const std::string& where,
                        std::uint64_t expected, std::uint64_t actual) {
  if (expected == 0) {
    EXPECT_EQ(actual, 0u) << where << ": " << what
                          << " expected 0, measured " << actual;
    return;
  }
  const std::uint64_t lo = expected - expected / 4;
  const std::uint64_t hi = expected + expected / 4;
  EXPECT_GE(actual, lo) << where << ": " << what << " fell below budget ("
                        << actual << " < " << lo << ", expected ~"
                        << expected << ") — update the budget if the "
                        << "improvement is intentional";
  EXPECT_LE(actual, hi) << where << ": " << what << " exceeded budget ("
                        << actual << " > " << hi << ", expected ~"
                        << expected << ") — a lemma cost regressed";
}

void check_budgets(const std::vector<PhaseCost>& phases,
                   const std::vector<PhaseBudget>& budgets) {
  for (const auto& b : budgets) {
    const PhaseCost* found = nullptr;
    for (const auto& p : phases) {
      if (p.protocol == b.protocol && p.phase == b.phase) {
        found = &p;
        break;
      }
    }
    const std::string where =
        std::string(b.protocol) + "/" + b.phase;
    ASSERT_NE(found, nullptr) << where << ": phase missing from trace";
    EXPECT_EQ(found->rounds, b.rounds)
        << where << ": round count changed — this is a protocol change "
        << "(rounds are exact, no tolerance)";
    expect_within_band("adds", where, b.adds, found->ops.adds);
    expect_within_band("muls", where, b.muls, found->ops.muls);
    expect_within_band("interps", where, b.interps,
                       found->ops.interpolations);
    expect_within_band("msgs", where, b.msgs, found->comm.messages);
    expect_within_band("bytes", where, b.bytes, found->comm.bytes);
  }
}

// Runs `program` on a fresh traced n=7 cluster and returns the per-phase
// aggregation of the trace.
std::vector<PhaseCost> trace_run(const Cluster::Program& program) {
  tracer().clear();
  tracer().set_enabled(true);
  Cluster cluster(kN, static_cast<int>(kT), kSeed);
  cluster.run(std::vector<Cluster::Program>(kN, program));
  tracer().set_enabled(false);
  return aggregate_phases(tracer().events());
}

class TraceBudgetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    genesis_ = trusted_dealer_coins<F>(kN, kT, 8, kSeed);
    tracer().set_enabled(false);
    tracer().clear();
  }
  void TearDown() override {
    tracer().set_enabled(false);
    tracer().clear();
  }

  CoinPool<F> pool_for(int id) {
    CoinPool<F> pool;
    for (auto& c : genesis_[id]) pool.add(std::move(c));
    return pool;
  }

  std::vector<std::vector<SealedCoin<F>>> genesis_;
};

TEST_F(TraceBudgetTest, VssPerPhaseBudget) {
  const auto phases = trace_run([&](PartyIo& io) {
    auto pool = pool_for(io.id());
    std::optional<Polynomial<F>> poly;
    if (io.id() == 0) poly = Polynomial<F>::random(kT, io.rng());
    const auto out =
        vss_share_and_verify<F>(io, /*dealer=*/0, kT, poly, pool.take());
    ASSERT_TRUE(out.accepted);
  });
  // Lemma 2: 2 rounds of n messages, 2 interpolations per player (one in
  // the challenge exposure, one in the final decode).
  check_budgets(phases, {
      // proto, phase, rounds, adds, muls, interps, msgs, bytes
      {"vss", "deal", 0, 28, 28, 0, 6, 126},
      {"vss", "challenge", 1, 798, 987, 7, 42, 546},
      {"vss", "respond", 1, 7, 7, 0, 42, 588},
      {"vss", "interpolate", 0, 273, 273, 7, 0, 0},
  });
}

TEST_F(TraceBudgetTest, CoinExposePerPhaseBudget) {
  const auto phases = trace_run([&](PartyIo& io) {
    auto pool = pool_for(io.id());
    for (unsigned h = 0; h < kM; ++h) {
      ASSERT_TRUE(coin_expose<F>(io, pool.take(), h).has_value());
    }
  });
  // Fig. 6 / §3.1: one round and one interpolation per coin per player;
  // n^2 messages of size k.
  check_budgets(phases, {
      {"coin-expose", "expose", 4, 1393, 1855, 28, 168, 2184},
  });
}

TEST_F(TraceBudgetTest, BatchVssPerPhaseBudget) {
  const auto phases = trace_run([&](PartyIo& io) {
    auto pool = pool_for(io.id());
    PolyBlock<F> polys;
    if (io.id() == 0) {
      polys = PolyBlock<F>::random(kM, kT, io.rng());
    }
    const auto out =
        batch_vss<F>(io, /*dealer=*/0, kT, kM, polys, pool.take());
    ASSERT_TRUE(out.accepted);
  });
  // Lemma 4: the batch costs what a single VSS costs — 2 rounds, 2
  // interpolations — independent of M (only deal bytes grow with M).
  check_budgets(phases, {
      {"batch-vss", "deal", 0, 56, 56, 0, 6, 222},
      {"batch-vss", "challenge", 1, 798, 987, 7, 42, 546},
      {"batch-vss", "combine", 1, 28, 28, 0, 42, 588},
      {"batch-vss", "interpolate", 0, 273, 273, 7, 0, 0},
  });
}

TEST_F(TraceBudgetTest, BitGenPerPhaseBudget) {
  const auto phases = trace_run([&](PartyIo& io) {
    auto pool = pool_for(io.id());
    const auto polys = PolyBlock<F>::random(kM, kT, io.rng());
    const auto out = bit_gen_all<F>(io, polys, kM, kT, pool.take());
    for (int dealer = 0; dealer < kN; ++dealer) {
      ASSERT_TRUE(out.views[dealer].accepted());
    }
  });
  // Lemma 6: 2 rounds; n messages of size Mk (deal) + n^2 of size k
  // (challenge coin) + n^2 of size ~kn (batched combinations).
  check_budgets(phases, {
      {"bitgen", "deal", 0, 392, 392, 0, 42, 1554},
      {"bitgen", "challenge", 1, 798, 987, 7, 42, 546},
      {"bitgen", "combine", 1, 196, 196, 0, 42, 2898},
      {"bitgen", "decode", 0, 1911, 1911, 49, 0, 0},
  });
}

TEST_F(TraceBudgetTest, CoinGenPerPhaseBudget) {
  const auto phases = trace_run([&](PartyIo& io) {
    auto pool = pool_for(io.id());
    const auto out = coin_gen<F>(io, /*m=*/kM, pool);
    ASSERT_TRUE(out.success);
    ASSERT_EQ(out.iterations, 1u);  // honest leader on the first draw
  });
  // Fig. 5 / Lemma 8: deal rides on Bit-Gen (2 rounds), grade-cast adds
  // 3, one leader exposure (1) + one Phase-King BA (2(t+1) = 4) when the
  // first leader is honest: 10 rounds total. Grade-cast's echo rounds
  // carry Reed–Solomon chunks of dimension n - 3t = 4 (its ops are the
  // encode and the syndrome checks).
  check_budgets(phases, {
      {"coin-gen", "deal", 2, 3948, 4410, 56, 126, 5334},
      {"coin-gen", "graph", 0, 588, 588, 0, 0, 0},
      {"coin-gen", "clique", 0, 0, 0, 0, 0, 0},
      {"coin-gen", "gradecast", 3, 10150, 10920, 0, 126, 25242},
      {"coin-gen", "leader", 1, 259, 259, 7, 42, 630},
      {"coin-gen", "ba", 4, 0, 0, 0, 96, 630},
      {"coin-gen", "output", 0, 210, 98, 0, 0, 0},
  });
  // Lemma-8 sanity: the whole run fits in 10 rounds at one iteration.
  std::uint64_t total_rounds = 0;
  for (const auto& p : phases) {
    if (p.protocol == "coin-gen") total_rounds += p.rounds;
  }
  EXPECT_EQ(total_rounds, 10u);
}

}  // namespace
}  // namespace dprbg
