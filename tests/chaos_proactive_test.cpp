// Chaos over pro-active refresh (dprbg/proactive.h): seeded random
// link-fault plans against the epoch re-randomization, closing the
// ROADMAP chaos item for the refresh path.
//
// The refresh runs in the Section 3 broadcast model, so — exactly as the
// VSS chaos suite — the fault horizon stops after round 0 (zero-secret
// row delivery + challenge exposure): faulting the round-1 combination
// broadcast would equivocate the broadcast assumption itself, which is
// more power than a Byzantine dealer has.
//
// Within round 0 the fault SHAPE matters, because every player deals.
// Faulting a charged player's OUTGOING links turns it into an
// equivocating dealer — its row reaches some honest players and not
// others, so holder status (and with it the success flag) is
// legitimately non-unanimous; coin_gen_bc.h documents exactly this
// caveat for the shared broadcast-model machinery. What survives
// arbitrary round-0 plans is everything derived from the round-1
// broadcast: the accepted-dealer set and the refresher choice.
//
// The strong guarantees — unanimous success plus every coin's VALUE
// unchanged while its sharing re-randomizes — hold for the
// flaky-receiver shape (faults confined to the charged player's
// INCOMING links): honest players' views stay pairwise identical, and
// the charged player's garbled combination contributions are absorbed
// by the decoder's error tolerance. Both shapes are soaked below.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <span>
#include <vector>

#include "chaos_util.h"
#include "coin/sealed_coin.h"
#include "dprbg/dprbg.h"
#include "dprbg/proactive.h"
#include "dprbg/trusted_dealer.h"
#include "gf/gf2.h"
#include "net/cluster.h"
#include "net/fault.h"
#include "poly/reed_solomon.h"
#include "sharing/shamir.h"

namespace dprbg {
namespace {

using F = GF2_64;
using chaos::expect_honest_unanimous;
using chaos::replay_note;
using chaos::Trial;

constexpr int kN = 7;
constexpr unsigned kT = 1;
constexpr unsigned kM = 4;  // coins refreshed per trial

// A trial whose round-0 faults land only on the charged player's
// incoming links (the flaky-receiver shape; see the header comment).
struct ReceiverTrial {
  Cluster cluster;
  std::set<int> charged;

  ReceiverTrial(std::uint64_t seed, double rate)
      : cluster(kN, static_cast<int>(kT), seed) {
    std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 1);
    const int victim = static_cast<int>(rng() % kN);
    charged.insert(victim);
    const auto threshold = static_cast<std::uint64_t>(
        rate *
        static_cast<double>(std::numeric_limits<std::uint64_t>::max()));
    FaultPlan plan;
    plan.charge(victim);
    for (int from = 0; from < kN; ++from) {
      if (from == victim || rng() > threshold) continue;
      FaultSpec spec;
      switch (rng() % 3) {
        case 0:
          spec = {FaultAction::kDrop, 1};
          break;
        case 1:
          spec = {FaultAction::kCorrupt,
                  1 + static_cast<unsigned>(rng() % 4)};
          break;
        default:
          spec = {FaultAction::kDelay, 1 + static_cast<unsigned>(rng() % 2)};
          break;
      }
      plan.add(/*round=*/0, from, victim, spec);
    }
    cluster.set_fault_injector(
        std::make_shared<FaultInjector>(std::move(plan)));
  }
};

// Reconstructs a coin's value from the non-charged players' shares.
// Decode with the same t-error tolerance Coin-Expose uses, in case an
// accepted dealer's corrupted row was absorbed as a decode error and
// left one player a bad delta.
std::optional<F> honest_value(const std::vector<std::optional<F>>& shares,
                              const std::set<int>& charged) {
  std::vector<PointValue<F>> points;
  for (int i = 0; i < kN; ++i) {
    if (charged.count(i) != 0 || !shares[i].has_value()) continue;
    points.push_back({eval_point<F>(i), *shares[i]});
  }
  if (points.size() < kT + 1) return std::nullopt;
  const unsigned max_errors = std::min<unsigned>(
      kT, static_cast<unsigned>((points.size() - kT - 1) / 2));
  return rs_decode_at_zero<F>(points, kT, max_errors);
}

TEST(ChaosProactiveTest, RefreshUnanimousAndValuePreservingUnderFaults) {
  const int kSeeds = 60;
  std::uint64_t fault_total = 0;
  int refresh_successes = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE(replay_note(seed));
    ReceiverTrial trial(seed, /*rate=*/0.5);
    auto genesis = trusted_dealer_coins<F>(kN, kT, kM + 1, seed);

    std::vector<RefreshResult<F>> results(kN);
    trial.cluster.run(
        [&](PartyIo& io) {
          const auto& mine = genesis[io.id()];
          const SealedCoin<F> challenge = mine[0];
          const std::vector<SealedCoin<F>> coins(mine.begin() + 1,
                                                 mine.end());
          results[io.id()] = proactive_refresh<F>(
              io, std::span<const SealedCoin<F>>(coins), challenge);
        },
        {}, nullptr);

    std::vector<char> success(kN);
    std::vector<std::vector<int>> refreshers(kN);
    std::vector<std::vector<int>> accepted(kN);
    for (int i = 0; i < kN; ++i) {
      success[i] = results[i].success;
      refreshers[i] = results[i].refreshers;
      accepted[i] = results[i].accepted_dealers;
    }
    expect_honest_unanimous(success, trial.charged, seed,
                            "refresh success flag");
    expect_honest_unanimous(accepted, trial.charged, seed,
                            "refresh accepted dealers");
    expect_honest_unanimous(refreshers, trial.charged, seed,
                            "refresher set");

    const int witness = trial.charged.count(0) != 0 ? 1 : 0;
    if (results[witness].success) {
      ++refresh_successes;
      for (unsigned h = 0; h < kM; ++h) {
        // Old and new sharings must hide the SAME value...
        std::vector<std::optional<F>> before(kN);
        std::vector<std::optional<F>> after(kN);
        for (int i = 0; i < kN; ++i) {
          before[i] = genesis[i][h + 1].share;
          if (results[i].success) {
            after[i] = results[i].coins[h].share;
          }
        }
        const auto v_before = honest_value(before, trial.charged);
        const auto v_after = honest_value(after, trial.charged);
        ASSERT_TRUE(v_before.has_value()) << replay_note(seed);
        ASSERT_TRUE(v_after.has_value())
            << "refreshed sharing of coin " << h
            << " does not decode to degree t; " << replay_note(seed);
        EXPECT_EQ(*v_after, *v_before)
            << "refresh changed coin " << h << "'s value; "
            << replay_note(seed);
        // ...through genuinely different shares (the re-randomization).
        bool any_changed = false;
        for (int i = 0; i < kN; ++i) {
          if (before[i] && after[i] && !(*before[i] == *after[i])) {
            any_changed = true;
          }
        }
        EXPECT_TRUE(any_changed)
            << "refresh left coin " << h << "'s sharing untouched; "
            << replay_note(seed);
      }
    }
    fault_total += trial.cluster.faults().total();
  }
  // The harness must be hitting the network, and honest dealers' rows
  // all arrive under this shape, so every trial must refresh.
  EXPECT_GT(fault_total, static_cast<std::uint64_t>(kSeeds));
  EXPECT_EQ(refresh_successes, kSeeds)
      << "flaky-receiver faults must never sink an honest refresh";
}

// Unrestricted round-0 plans: the charged player's outgoing row delivery
// may fail toward a strict subset of players — an equivocating dealer.
// If such a dealer is accepted (its combination still decodes) and
// drafted as a refresher, players missing its row report failure while
// the rest succeed, so the success flag is NOT asserted unanimous here.
// The broadcast-derived sets must still agree everywhere.
TEST(ChaosProactiveTest, AcceptedSetsUnanimousUnderUnrestrictedFaults) {
  const int kSeeds = 40;
  std::uint64_t fault_total = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE(replay_note(seed));
    // Horizon 1 round: the broadcast-model caveat above.
    Trial trial(kN, kT, seed, /*rounds=*/1, /*rate=*/0.5);
    auto genesis = trusted_dealer_coins<F>(kN, kT, kM + 1, seed);

    std::vector<RefreshResult<F>> results(kN);
    trial.cluster.run(
        [&](PartyIo& io) {
          const auto& mine = genesis[io.id()];
          const SealedCoin<F> challenge = mine[0];
          const std::vector<SealedCoin<F>> coins(mine.begin() + 1,
                                                 mine.end());
          results[io.id()] = proactive_refresh<F>(
              io, std::span<const SealedCoin<F>>(coins), challenge);
        },
        {}, nullptr);

    std::vector<std::vector<int>> refreshers(kN);
    std::vector<std::vector<int>> accepted(kN);
    for (int i = 0; i < kN; ++i) {
      refreshers[i] = results[i].refreshers;
      accepted[i] = results[i].accepted_dealers;
    }
    expect_honest_unanimous(accepted, trial.charged, seed,
                            "refresh accepted dealers");
    expect_honest_unanimous(refreshers, trial.charged, seed,
                            "refresher set");
    fault_total += trial.cluster.faults().total();
  }
  EXPECT_GT(fault_total, static_cast<std::uint64_t>(kSeeds));
}

// The DPrbg wrapper path: refresh_pool() mid-stream, then keep drawing —
// the refreshed pool must expose the same unanimous coin values it would
// have without the refresh (values are refresh-invariant by design).
// Flaky-receiver shape, for the same reason as above: the wrapper's
// "uniform across honest players" return contract presumes every honest
// dealer's row delivery completes.
TEST(ChaosProactiveTest, DPrbgRefreshPoolKeepsDrawsUnanimousUnderFaults) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(replay_note(seed));
    ReceiverTrial trial(seed, /*rate=*/0.4);
    auto genesis = trusted_dealer_coins<F>(kN, kT, 8, seed);

    std::vector<char> refreshed(kN);
    std::vector<std::optional<F>> drawn(kN);
    trial.cluster.run(
        [&](PartyIo& io) {
          typename DPrbg<F>::Options opts;
          opts.reserve = 0;  // no refill mid-test: isolate the refresh
          DPrbg<F> prbg(opts, genesis[io.id()]);
          refreshed[io.id()] = prbg.refresh_pool(io);
          drawn[io.id()] = prbg.next_coin(io);
        },
        {}, nullptr);

    expect_honest_unanimous(refreshed, trial.charged, seed,
                            "refresh_pool outcome");
    expect_honest_unanimous(drawn, trial.charged, seed,
                            "post-refresh coin value");
    const int witness = trial.charged.count(0) != 0 ? 1 : 0;
    EXPECT_TRUE(refreshed[witness]) << replay_note(seed);
    ASSERT_TRUE(drawn[witness].has_value()) << replay_note(seed);
  }
}

}  // namespace
}  // namespace dprbg
