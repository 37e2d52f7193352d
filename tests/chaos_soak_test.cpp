// Chaos soak: hammer every protocol with seeded random link-fault plans
// (net/fault.h) and assert the paper's guarantees for the players the
// faults are NOT charged to. Because every faulted link is attributed to
// a charged set of size <= t, a lossy link is indistinguishable from a
// Byzantine player — so honest-side unanimity (Lemmas 1-8) must survive
// every plan. Each failure prints its fault seed; rerunning with that
// seed replays the execution bit-for-bit.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "ba/randomized_ba.h"
#include "chaos_util.h"
#include "coin/bitgen.h"
#include "coin/coin_expose.h"
#include "coin/coin_gen.h"
#include "dprbg/coin_pool.h"
#include "dprbg/trusted_dealer.h"
#include "gf/gf2.h"
#include "gradecast/gradecast.h"
#include "net/cluster.h"
#include "net/fault.h"
#include "vss/batch_vss.h"
#include "vss/vss.h"

namespace dprbg {
namespace {

using F = GF2_64;
using chaos::expect_gradecast_band;
using chaos::expect_honest_unanimous;
using chaos::replay_note;
using chaos::Trial;

// ---------------------------------------------------------------------
// Coin-Gen: the acceptance criterion — >= 200 seeded plans, unanimous
// success/clique/coin outputs across all non-charged players.
// ---------------------------------------------------------------------

TEST(ChaosSoakTest, CoinGenUnanimousAcross200FaultPlans) {
  const int n = 7;
  const unsigned t = 1;
  const unsigned m = 2;
  const int kSeeds = 200;
  int successes = 0;
  std::uint64_t fault_total = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE(replay_note(seed));
    Trial trial(n, t, seed, /*rounds=*/48, /*rate=*/0.08);
    auto genesis = trusted_dealer_coins<F>(n, t, 8, seed);
    std::vector<CoinGenResult<F>> results(n);
    std::vector<std::vector<std::optional<F>>> coins(
        n, std::vector<std::optional<F>>(m));
    trial.cluster.run(
        [&](PartyIo& io) {
          CoinPool<F> pool;
          for (auto& c : genesis[io.id()]) pool.add(std::move(c));
          results[io.id()] = coin_gen<F>(io, m, pool);
          if (!results[io.id()].success) return;
          const auto sealed = results[io.id()].sealed_coins(t);
          for (unsigned h = 0; h < m; ++h) {
            // An unqualified player holds no shares (sealed_coins is
            // empty) but still joins the expose rounds and learns the
            // value from the qualified players' sigmas.
            const SealedCoin<F> coin = h < sealed.size()
                                           ? sealed[h]
                                           : SealedCoin<F>{std::nullopt, t};
            coins[io.id()][h] =
                coin_expose<F>(io, coin, /*instance=*/100 + h);
          }
        },
        {}, nullptr);

    std::vector<char> success(n);
    std::vector<std::vector<int>> cliques(n);
    std::vector<std::vector<int>> summed(n);
    std::vector<unsigned> iterations(n);
    for (int i = 0; i < n; ++i) {
      success[i] = results[i].success;
      cliques[i] = results[i].clique;
      summed[i] = results[i].summed_dealers;
      iterations[i] = results[i].iterations;
    }
    expect_honest_unanimous(success, trial.charged, seed,
                            "coin-gen success flag");
    expect_honest_unanimous(cliques, trial.charged, seed,
                            "coin-gen clique");
    expect_honest_unanimous(summed, trial.charged, seed,
                            "coin-gen summed dealers");
    expect_honest_unanimous(iterations, trial.charged, seed,
                            "coin-gen iteration count");
    const int witness =
        trial.charged.count(0) != 0 ? 1 : 0;  // some non-charged player
    if (results[witness].success) {
      ++successes;
      expect_honest_unanimous(coins, trial.charged, seed,
                              "exposed coin values");
      for (unsigned h = 0; h < m; ++h) {
        EXPECT_TRUE(coins[witness][h].has_value())
            << "coin " << h << " failed to expose; " << replay_note(seed);
      }
    }
    fault_total += trial.cluster.faults().total();
  }
  // The harness must be hitting the network (not vacuously clean plans)
  // and the protocol must ride out the vast majority of them.
  EXPECT_GT(fault_total, static_cast<std::uint64_t>(kSeeds));
  EXPECT_GE(successes, kSeeds * 9 / 10)
      << "Coin-Gen failed (unanimously) far more often than a <= t/n "
         "faulty-leader rate explains";
}

// A deliberately harsher shape: the charged player is fully partitioned
// for a window covering Bit-Gen and grade-cast, then rejoins.
TEST(ChaosSoakTest, CoinGenSurvivesMidProtocolPartition) {
  const int n = 7;
  const unsigned t = 1;
  const unsigned m = 2;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(replay_note(seed));
    const int victim = static_cast<int>(seed % n);
    FaultPlan plan;
    plan.charge(victim);
    plan.isolate(/*first_round=*/1, /*last_round=*/4, victim, n);
    Cluster cluster(n, static_cast<int>(t), seed);
    cluster.set_fault_injector(
        std::make_shared<FaultInjector>(std::move(plan)));
    auto genesis = trusted_dealer_coins<F>(n, t, 8, seed);
    std::vector<CoinGenResult<F>> results(n);
    cluster.run(
        [&](PartyIo& io) {
          CoinPool<F> pool;
          for (auto& c : genesis[io.id()]) pool.add(std::move(c));
          results[io.id()] = coin_gen<F>(io, m, pool);
        },
        {}, nullptr);
    const std::set<int> charged{victim};
    std::vector<char> success(n);
    std::vector<std::vector<int>> cliques(n);
    for (int i = 0; i < n; ++i) {
      success[i] = results[i].success;
      cliques[i] = results[i].clique;
    }
    expect_honest_unanimous(success, charged, seed, "success flag");
    expect_honest_unanimous(cliques, charged, seed, "clique");
    EXPECT_TRUE(results[(victim + 1) % n].success) << replay_note(seed);
  }
}

// ---------------------------------------------------------------------
// Grade-Cast: honest-sender delivery and the confidence band.
// ---------------------------------------------------------------------

TEST(ChaosSoakTest, GradeCastBandHoldsUnderFaults) {
  const int n = 7;
  const unsigned t = 2;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE(replay_note(seed));
    // Every player grade-casts in turn (sender s at instance s), so the
    // plan covers all n three-round grade-casts.
    Trial trial(n, t, seed, /*rounds=*/3 * n, /*rate=*/0.15);
    std::vector<std::vector<GradeCastResult>> results(n);
    trial.cluster.run(
        [&](PartyIo& io) {
          const std::vector<std::uint8_t> mine{
              static_cast<std::uint8_t>(io.id()), 0xA5};
          for (int s = 0; s < n; ++s) {
            results[io.id()].push_back(
                grade_cast(io, s, mine, static_cast<unsigned>(s)));
          }
        },
        {}, nullptr);
    for (int s = 0; s < n; ++s) {
      std::vector<GradeCastResult> per_player(n);
      for (int i = 0; i < n; ++i) per_player[i] = results[i][s];
      if (trial.charged.count(s) == 0) {
        // Honest sender with clean links: everyone non-charged commits.
        for (int i = 0; i < n; ++i) {
          if (trial.charged.count(i) != 0) continue;
          EXPECT_EQ(per_player[i].confidence, 2)
              << "sender " << s << " player " << i << "; "
              << replay_note(seed);
          const std::vector<std::uint8_t> expected{
              static_cast<std::uint8_t>(s), 0xA5};
          EXPECT_EQ(per_player[i].value, expected)
              << "sender " << s << " player " << i << "; "
              << replay_note(seed);
        }
      }
      expect_gradecast_band(per_player, trial.charged, seed, s);
    }
  }
}

// ---------------------------------------------------------------------
// VSS / Batch-VSS: unanimous accept with an honest unfaulted dealer,
// unanimous *decision* even when the dealer's links are the faulted ones.
// ---------------------------------------------------------------------

TEST(ChaosSoakTest, VssAcceptsWithHonestDealerUnderFaults) {
  const int n = 7;
  const unsigned t = 2;
  const int dealer = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE(replay_note(seed));
    Trial trial(n, t, seed, /*rounds=*/4, /*rate=*/0.12,
                /*never_charge=*/{dealer});
    auto genesis = trusted_dealer_coins<F>(n, t, 1, seed);
    std::vector<char> accepted(n);
    trial.cluster.run(
        [&](PartyIo& io) {
          std::optional<Polynomial<F>> poly;
          if (io.id() == dealer) {
            poly = Polynomial<F>::random(t, io.rng());
          }
          const auto out = vss_share_and_verify<F>(
              io, dealer, t, poly,
              SealedCoin<F>{genesis[io.id()][0].share, t});
          accepted[io.id()] = out.accepted;
        },
        {}, nullptr);
    for (int i = 0; i < n; ++i) {
      if (trial.charged.count(i) != 0) continue;
      EXPECT_TRUE(accepted[i])
          << "player " << i << " rejected an honest unfaulted dealer; "
          << replay_note(seed);
    }
  }
}

TEST(ChaosSoakTest, VssDecisionUnanimousEvenWithFaultedDealerLinks) {
  const int n = 7;
  const unsigned t = 2;
  const int dealer = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE(replay_note(seed));
    // No never_charge: the dealer itself may be the charged player, so
    // its outgoing shares can be corrupted — the decision must still be
    // unanimous among the others. The fault horizon stops after round 0
    // (share delivery + challenge exposure): VSS agreement is proven
    // under the broadcast assumption, and faulting a link in the
    // combination round (round 1) would equivocate the broadcast itself —
    // more power than a Byzantine dealer has (see DESIGN.md, "What link
    // faults may not touch").
    Trial trial(n, t, seed, /*rounds=*/1, /*rate=*/0.5);
    auto genesis = trusted_dealer_coins<F>(n, t, 1, seed);
    std::vector<char> accepted(n);
    trial.cluster.run(
        [&](PartyIo& io) {
          std::optional<Polynomial<F>> poly;
          if (io.id() == dealer) {
            poly = Polynomial<F>::random(t, io.rng());
          }
          const auto out = vss_share_and_verify<F>(
              io, dealer, t, poly,
              SealedCoin<F>{genesis[io.id()][0].share, t});
          accepted[io.id()] = out.accepted;
        },
        {}, nullptr);
    expect_honest_unanimous(accepted, trial.charged, seed,
                            "VSS accept/reject decision");
  }
}

TEST(ChaosSoakTest, BatchVssAcceptsWithHonestDealerUnderFaults) {
  const int n = 7;
  const unsigned t = 2;
  const int dealer = 2;
  const unsigned m = 6;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(replay_note(seed));
    Trial trial(n, t, seed, /*rounds=*/4, /*rate=*/0.12,
                /*never_charge=*/{dealer});
    auto genesis = trusted_dealer_coins<F>(n, t, 1, seed);
    std::vector<char> accepted(n);
    trial.cluster.run(
        [&](PartyIo& io) {
          PolyBlock<F> polys;
          if (io.id() == dealer) {
            polys = PolyBlock<F>::random(m, t, io.rng());
          }
          const auto out = batch_vss<F>(
              io, dealer, t, m, polys,
              SealedCoin<F>{genesis[io.id()][0].share, t});
          accepted[io.id()] = out.accepted;
        },
        {}, nullptr);
    for (int i = 0; i < n; ++i) {
      if (trial.charged.count(i) != 0) continue;
      EXPECT_TRUE(accepted[i])
          << "player " << i << " rejected an honest unfaulted dealer; "
          << replay_note(seed);
    }
  }
}

// ---------------------------------------------------------------------
// Bit-Gen: every non-charged player decodes the same combined
// polynomial from an honest unfaulted dealer.
// ---------------------------------------------------------------------

TEST(ChaosSoakTest, BitGenDecodesUnanimouslyUnderFaults) {
  const int n = 7;
  const unsigned t = 1;
  const int dealer = 3;
  const unsigned m_total = 5;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(replay_note(seed));
    Trial trial(n, t, seed, /*rounds=*/3, /*rate=*/0.15,
                /*never_charge=*/{dealer});
    auto genesis = trusted_dealer_coins<F>(n, t, 1, seed);
    std::vector<std::vector<std::uint64_t>> decoded(n);
    trial.cluster.run(
        [&](PartyIo& io) {
          PolyBlock<F> polys;
          if (io.id() == dealer) {
            polys = PolyBlock<F>::random(m_total, t, io.rng());
          }
          const auto view = bit_gen_single<F>(
              io, dealer, m_total, t, polys,
              SealedCoin<F>{genesis[io.id()][0].share, t});
          if (view.poly) {
            for (unsigned c = 0; c <= t; ++c) {
              decoded[io.id()].push_back(view.poly->coeff(c).to_uint());
            }
          }
        },
        {}, nullptr);
    for (int i = 0; i < n; ++i) {
      if (trial.charged.count(i) != 0) continue;
      EXPECT_FALSE(decoded[i].empty())
          << "player " << i << " output bottom for an honest unfaulted "
          << "dealer; " << replay_note(seed);
    }
    expect_honest_unanimous(decoded, trial.charged, seed,
                            "bit-gen combined polynomial");
  }
}

// ---------------------------------------------------------------------
// Randomized BA: agreement + validity with coins exposed over faulted
// links.
// ---------------------------------------------------------------------

TEST(ChaosSoakTest, RandomizedBaAgreesUnderFaults) {
  const int n = 7;
  const unsigned t = 1;
  const unsigned kPhases = 12;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE(replay_note(seed));
    Trial trial(n, t, seed, /*rounds=*/2 * kPhases + 2, /*rate=*/0.1);
    auto genesis =
        trusted_dealer_coins<F>(n, t, static_cast<int>(kPhases), seed);
    std::vector<std::optional<int>> decisions(n);
    trial.cluster.run(
        [&](PartyIo& io) {
          CoinPool<F> pool;
          for (auto& c : genesis[io.id()]) pool.add(std::move(c));
          unsigned draw = 0;
          const auto coin_source =
              [&](PartyIo& pio) -> std::optional<int> {
            if (pool.empty()) return std::nullopt;
            const auto val = coin_expose<F>(pio, pool.take(),
                                            /*instance=*/500 + draw++);
            if (!val) return std::nullopt;
            return static_cast<int>(val->to_uint() & 1u);
          };
          const auto result = randomized_ba(
              io, (io.id() * 7 + static_cast<int>(seed)) % 2, coin_source,
              kPhases, /*instance=*/0);
          decisions[io.id()] = result.decision;
        },
        {}, nullptr);
    expect_honest_unanimous(decisions, trial.charged, seed,
                            "randomized BA decision");
  }
}

TEST(ChaosSoakTest, RandomizedBaValidityUnderFaults) {
  const int n = 7;
  const unsigned t = 1;
  const unsigned kPhases = 8;
  for (int v : {0, 1}) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      SCOPED_TRACE(replay_note(seed));
      Trial trial(n, t, seed + 977 * v, /*rounds=*/2 * kPhases + 2,
                  /*rate=*/0.1);
      auto genesis = trusted_dealer_coins<F>(
          n, t, static_cast<int>(kPhases), seed);
      std::vector<std::optional<int>> decisions(n);
      trial.cluster.run(
          [&](PartyIo& io) {
            CoinPool<F> pool;
            for (auto& c : genesis[io.id()]) pool.add(std::move(c));
            unsigned draw = 0;
            const auto coin_source =
                [&](PartyIo& pio) -> std::optional<int> {
              if (pool.empty()) return std::nullopt;
              const auto val = coin_expose<F>(pio, pool.take(),
                                              /*instance=*/500 + draw++);
              if (!val) return std::nullopt;
              return static_cast<int>(val->to_uint() & 1u);
            };
            decisions[io.id()] =
                randomized_ba(io, v, coin_source, kPhases).decision;
          },
          {}, nullptr);
      // Unanimous honest input v must decide v (validity), faults or not.
      for (int i = 0; i < n; ++i) {
        if (trial.charged.count(i) != 0) continue;
        ASSERT_TRUE(decisions[i].has_value())
            << "player " << i << "; " << replay_note(seed);
        EXPECT_EQ(*decisions[i], v)
            << "player " << i << "; " << replay_note(seed);
      }
    }
  }
}

}  // namespace
}  // namespace dprbg
