// Integration tests for Coin-Gen (Fig. 5) + Coin-Expose (Fig. 6):
// Lemma 7 (agreed clique of size >= 4t+1 with an honest reconstruction
// core), Theorem 1 (the generated coins expose unanimously), fault
// tolerance, and statistical coin quality.

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <vector>

#include "coin/coin_expose.h"
#include "coin/coin_gen.h"
#include "dprbg/coin_pool.h"
#include "dprbg/trusted_dealer.h"
#include "gf/gf2.h"
#include "net/cluster.h"
#include "poly/reed_solomon.h"

namespace dprbg {
namespace {

using F = GF2_64;

struct GenRun {
  std::vector<CoinGenResult<F>> results;           // per player
  std::vector<std::vector<std::optional<F>>> coins;  // [player][coin]
};

// Runs Coin-Gen for m coins, then exposes all of them.
GenRun run_coin_gen(int n, int t, std::uint64_t seed, unsigned m,
                    const std::vector<int>& faulty = {},
                    const Cluster::Program& adversary = nullptr,
                    int seed_coins = 8) {
  auto genesis = trusted_dealer_coins<F>(n, t, seed_coins, seed);
  GenRun run;
  run.results.resize(n);
  run.coins.assign(n, {});
  Cluster cluster(n, t, seed);
  cluster.run(
      [&](PartyIo& io) {
        CoinPool<F> pool;
        for (auto& c : genesis[io.id()]) pool.add(std::move(c));
        auto result = coin_gen<F>(io, m, pool);
        run.results[io.id()] = result;
        if (!result.success) return;
        const auto sealed =
            result.sealed_coins(static_cast<unsigned>(io.t()));
        for (unsigned h = 0; h < m; ++h) {
          run.coins[io.id()].push_back(
              coin_expose<F>(io, sealed[h], /*instance=*/100 + h));
        }
      },
      faulty, adversary);
  return run;
}

void expect_unanimous_coins(const GenRun& run, int n, unsigned m,
                            const std::set<int>& faulty) {
  int reference = -1;
  for (int i = 0; i < n; ++i) {
    if (faulty.count(i)) continue;
    ASSERT_TRUE(run.results[i].success) << "player " << i;
    ASSERT_EQ(run.coins[i].size(), m) << "player " << i;
    if (reference < 0) reference = i;
    EXPECT_EQ(run.results[i].clique, run.results[reference].clique);
    EXPECT_EQ(run.results[i].summed_dealers,
              run.results[reference].summed_dealers);
    for (unsigned h = 0; h < m; ++h) {
      ASSERT_TRUE(run.coins[i][h].has_value())
          << "player " << i << " coin " << h;
      EXPECT_EQ(*run.coins[i][h], *run.coins[reference][h])
          << "player " << i << " coin " << h;
    }
  }
}

// The player the first leader draw elects: genesis coin 1 (coin 0 is the
// Bit-Gen challenge) mod n.
int first_leader(const std::vector<std::vector<SealedCoin<F>>>& genesis,
                 int n, int t) {
  std::vector<PointValue<F>> points;
  for (int i = 0; i < n; ++i) {
    points.push_back({eval_point<F>(i), *genesis[i][1].share});
  }
  const auto secret =
      rs_decode_at_zero<F>(points, static_cast<unsigned>(t), 0);
  return static_cast<int>(secret->to_uint() % static_cast<std::uint64_t>(n));
}

// Coin-Gen whose first leader is faulty: it deals honestly, joins the
// leader draw, then in iteration 0's Grade-Cast either sends one package
// to the lower half of the honest players and another (its clique minus
// one dealer, so a different length) to the rest, or sends nothing. It
// sends nothing after that. Every honest player must vote 0, retry under
// a new leader, and end unanimous with equal coins.
void expect_retry_past_faulty_leader(int n, int t, std::uint64_t seed,
                                     bool equivocate) {
  SCOPED_TRACE("n=" + std::to_string(n) + " t=" + std::to_string(t));
  const unsigned m = 3;
  const auto genesis = trusted_dealer_coins<F>(n, t, 8, seed);
  const int leader = first_leader(genesis, n, t);
  const auto run = run_coin_gen(
      n, t, seed, m, {leader}, [&](PartyIo& io) {
        CoinPool<F> pool;
        for (const auto& c : genesis[io.id()]) pool.add(c);
        const SealedCoin<F> challenge = pool.take();
        const auto polys = PolyBlock<F>::random(m + 1, t, io.rng());
        const auto bg = bit_gen_all<F>(io, polys, m + 1, t, challenge,
                                       /*instance=*/0);
        const auto drawn = coin_expose<F>(io, pool.take(), /*instance=*/1);
        EXPECT_EQ(drawn->to_uint() % static_cast<std::uint64_t>(n),
                  static_cast<std::uint64_t>(io.id()));
        if (equivocate) {
          auto clique = coin_gen_detail::leader_clique<F>(io, bg.views);
          const auto whole =
              coin_gen_detail::encode_clique_msg<F>(clique, bg.views, t);
          clique.pop_back();
          const auto cut =
              coin_gen_detail::encode_clique_msg<F>(clique, bg.views, t);
          int sent = 0;
          for (int to = 0; to < n; ++to) {
            if (to == io.id()) continue;
            io.send(to, make_tag(ProtoId::kGradeCast, 0, 0),
                    2 * sent++ < n - 1 ? whole : cut);
          }
        }
        io.sync();
        io.sync();
        io.sync();
      });
  expect_unanimous_coins(run, n, m, {leader});
  const int ref = leader == 0 ? 1 : 0;
  for (int i = 0; i < n; ++i) {
    if (i == leader) continue;
    EXPECT_GE(run.results[i].iterations, 2u) << "player " << i;
    EXPECT_EQ(run.results[i].iterations, run.results[ref].iterations)
        << "player " << i;
    EXPECT_EQ(run.results[i].qualified, run.results[ref].qualified)
        << "player " << i;
  }
}

TEST(CoinGenTest, EquivocatingLeaderForcesUnanimousRetry) {
  expect_retry_past_faulty_leader(7, 1, 31, /*equivocate=*/true);
  expect_retry_past_faulty_leader(13, 2, 32, /*equivocate=*/true);
}

TEST(CoinGenTest, SilentLeaderForcesUnanimousRetry) {
  expect_retry_past_faulty_leader(7, 1, 33, /*equivocate=*/false);
  expect_retry_past_faulty_leader(13, 2, 34, /*equivocate=*/false);
}

TEST(CoinGenTest, AllHonestSmallSystem) {
  const int n = 7, t = 1;
  const unsigned m = 4;
  const auto run = run_coin_gen(n, t, 1, m);
  expect_unanimous_coins(run, n, m, {});
  // Lemma 7: clique size >= n - 2t; all players qualified when honest.
  for (int i = 0; i < n; ++i) {
    EXPECT_GE(run.results[i].clique.size(),
              static_cast<std::size_t>(n - 2 * t));
    EXPECT_TRUE(run.results[i].qualified);
    EXPECT_EQ(run.results[i].summed_dealers.size(),
              static_cast<std::size_t>(3 * t + 1));
  }
}

TEST(CoinGenTest, ExpectedConstantIterationsAllHonest) {
  // With no faults the first leader is always honest: 1 iteration.
  const auto run = run_coin_gen(7, 1, 2, 2);
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(run.results[i].iterations, 1u);
    EXPECT_EQ(run.results[i].seed_coins_used, 2u);  // challenge + leader
  }
}

TEST(CoinGenTest, CrashFaultsTolerated) {
  const int n = 13, t = 2;
  const unsigned m = 3;
  const auto run = run_coin_gen(n, t, 3, m, {0, 7}, nullptr);
  expect_unanimous_coins(run, n, m, {0, 7});
}

TEST(CoinGenTest, CrashedDealersExcludedFromClique) {
  const int n = 13, t = 2;
  const auto run = run_coin_gen(n, t, 4, 2, {0, 7}, nullptr);
  for (int i = 0; i < n; ++i) {
    if (i == 0 || i == 7) continue;
    for (int member : run.results[i].clique) {
      EXPECT_NE(member, 0);
      EXPECT_NE(member, 7);
    }
  }
}

TEST(CoinGenTest, OverDegreeByzantineDealerTolerated) {
  // A Byzantine player deals degree-(t+3) polynomials but otherwise
  // follows the protocol. Honest players must still agree and expose
  // identical coins; the cheater lands outside every honest clique.
  const int n = 13, t = 2;
  const unsigned m = 3;
  const int bad = 4;
  auto genesis = trusted_dealer_coins<F>(n, t, 8, 5);
  GenRun run;
  run.results.resize(n);
  run.coins.assign(n, {});
  Cluster cluster(n, t, 5);
  cluster.run(
      [&](PartyIo& io) {
        CoinPool<F> pool;
        for (auto& c : genesis[io.id()]) pool.add(std::move(c));
        auto result = coin_gen<F>(io, m, pool);
        run.results[io.id()] = result;
        if (!result.success) return;
        const auto sealed =
            result.sealed_coins(static_cast<unsigned>(io.t()));
        for (unsigned h = 0; h < m; ++h) {
          run.coins[io.id()].push_back(
              coin_expose<F>(io, sealed[h], 100 + h));
        }
      },
      {bad},
      [&](PartyIo& io) {
        // Same program as honest coin_gen, but the dealt polynomials have
        // too-high degree. We reuse coin_gen by monkey-patching degree:
        // simplest faithful attack: run the honest code after dealing bad
        // rows manually is complex, so emulate: deal junk rows, then
        // behave honestly for the rest of the rounds (combination values
        // are random junk too).
        const auto row_tag = make_tag(ProtoId::kBitGen, 0, 0);
        for (int i = 0; i < io.n(); ++i) {
          ByteWriter w;
          for (unsigned j = 0; j < m + 1; ++j) {
            write_elem(w, random_element<F>(io.rng()));
          }
          io.send(i, row_tag, std::move(w).take());
        }
        CoinPool<F> pool;
        for (auto& c : genesis[io.id()]) pool.add(std::move(c));
        (void)coin_expose<F>(io, pool.take(), 0);
        // Send junk combinations, then fall silent.
        ByteWriter w;
        for (int dealer = 0; dealer < io.n(); ++dealer) {
          w.u8(1);
          write_elem(w, random_element<F>(io.rng()));
        }
        io.send_all(make_tag(ProtoId::kBitGen, 0, 1), w.data());
        io.sync();
      });
  std::set<int> faulty = {bad};
  expect_unanimous_coins(run, n, m, faulty);
  for (int i = 0; i < n; ++i) {
    if (i == bad) continue;
    for (int member : run.results[i].clique) EXPECT_NE(member, bad);
  }
}

TEST(CoinGenTest, CoinsAreStatisticallyFair) {
  // Many independent Coin-Gen runs; the exposed binary coins should be
  // roughly balanced.
  const int n = 7, t = 1;
  int ones = 0, total = 0;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const unsigned m = 8;
    const auto run = run_coin_gen(n, t, 200 + seed, m);
    for (unsigned h = 0; h < m; ++h) {
      ASSERT_TRUE(run.coins[0][h].has_value());
      ones += coin_to_bit(*run.coins[0][h]);
      ++total;
    }
  }
  EXPECT_NEAR(double(ones) / total, 0.5, 0.17);
}

TEST(CoinGenTest, DistinctCoinsWithinBatch) {
  // k-ary coins from one batch are independent uniform values — over
  // GF(2^64) they virtually never collide.
  const unsigned m = 16;
  const auto run = run_coin_gen(7, 1, 6, m);
  std::set<std::uint64_t> values;
  for (unsigned h = 0; h < m; ++h) {
    values.insert(run.coins[0][h]->to_uint());
  }
  EXPECT_EQ(values.size(), m);
}

TEST(CoinGenTest, PoolExhaustionFailsUniformly) {
  // Only 1 seed coin: the challenge consumes it and the leader draw
  // cannot happen. Everyone must fail identically (no deadlock, no
  // crash).
  const auto run = run_coin_gen(7, 1, 7, 4, {}, nullptr, /*seed_coins=*/1);
  for (int i = 0; i < 7; ++i) {
    EXPECT_FALSE(run.results[i].success);
    EXPECT_EQ(run.results[i].seed_coins_used, 1u);
  }
}

TEST(CoinGenTest, LargerSystem19Players) {
  const int n = 19, t = 3;
  const unsigned m = 2;
  const auto run = run_coin_gen(n, t, 8, m, {2, 11, 17}, nullptr);
  expect_unanimous_coins(run, n, m, {2, 11, 17});
}

TEST(CoinGenTest, QualifiedSetLargeEnoughForReconstruction) {
  // Theorem 1 precondition: at least 2t+1 honest qualified players.
  const int n = 13, t = 2;
  const auto run = run_coin_gen(n, t, 9, 2, {1, 6}, nullptr);
  int qualified_honest = 0;
  for (int i = 0; i < n; ++i) {
    if (i == 1 || i == 6) continue;
    if (run.results[i].qualified) ++qualified_honest;
  }
  EXPECT_GE(qualified_honest, 2 * t + 1);
}

}  // namespace
}  // namespace dprbg
