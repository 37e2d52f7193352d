// Adversary zoo: integration tests that attack Coin-Gen / D-PRBG with
// actively malicious behaviours beyond simple crashes — equivocating
// dealers, lying grade-casters, protocol-noise injection — and verify the
// paper's guarantees (unanimity, agreement, unpredictability) survive.

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <vector>

#include "coin/coin_expose.h"
#include "coin/coin_gen.h"
#include "dprbg/coin_pool.h"
#include "dprbg/dprbg.h"
#include "dprbg/trusted_dealer.h"
#include "gf/gf2.h"
#include "net/cluster.h"
#include "poly/interpolate.h"

namespace dprbg {
namespace {

using F = GF2_64;

struct AttackRun {
  std::vector<CoinGenResult<F>> results;
  std::vector<std::vector<std::optional<F>>> coins;
};

AttackRun run_attack(int n, int t, std::uint64_t seed, unsigned m,
               const std::vector<int>& faulty,
               const Cluster::Program& adversary) {
  auto genesis = trusted_dealer_coins<F>(n, t, 10, seed);
  AttackRun run;
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
        auto sealed = result.sealed_coins(static_cast<unsigned>(io.t()));
        for (unsigned h = 0; h < m; ++h) {
          run.coins[io.id()].push_back(
              coin_expose<F>(io, sealed[h], 100 + h));
        }
      },
      faulty, adversary);
  return run;
}

void expect_success_and_unanimity(const AttackRun& run, int n, unsigned m,
                                  const std::set<int>& faulty) {
  int ref = -1;
  for (int i = 0; i < n; ++i) {
    if (faulty.count(i)) continue;
    ASSERT_TRUE(run.results[i].success) << "player " << i;
    if (ref < 0) ref = i;
    EXPECT_EQ(run.results[i].clique, run.results[ref].clique) << i;
    ASSERT_EQ(run.coins[i].size(), m) << i;
    for (unsigned h = 0; h < m; ++h) {
      ASSERT_TRUE(run.coins[i][h].has_value()) << i << "," << h;
      EXPECT_EQ(*run.coins[i][h], *run.coins[ref][h]) << i << "," << h;
    }
  }
}

TEST(AdversaryTest, EquivocatingBitGenDealer) {
  // The Byzantine dealer sends DIFFERENT valid-looking rows to different
  // players (an equivocation the broadcast-free model must survive).
  const int n = 13, t = 2;
  const unsigned m = 3;
  auto genesis = trusted_dealer_coins<F>(n, t, 10, 11);
  AttackRun run;
  run.results.resize(n);
  run.coins.assign(n, {});
  Cluster cluster(n, t, 11);
  const std::vector<int> faulty = {4};
  cluster.run(
      [&](PartyIo& io) {
        CoinPool<F> pool;
        for (auto& c : genesis[io.id()]) pool.add(std::move(c));
        auto result = coin_gen<F>(io, m, pool);
        run.results[io.id()] = result;
        if (!result.success) return;
        auto sealed = result.sealed_coins(static_cast<unsigned>(io.t()));
        for (unsigned h = 0; h < m; ++h) {
          run.coins[io.id()].push_back(
              coin_expose<F>(io, sealed[h], 100 + h));
        }
      },
      faulty,
      [&](PartyIo& io) {
        // Deal per-receiver-different rows (each individually on a valid
        // degree-t polynomial family, but mutually inconsistent).
        const auto row_tag = make_tag(ProtoId::kBitGen, 0, 0);
        for (int i = 0; i < io.n(); ++i) {
          std::vector<Polynomial<F>> polys;
          for (unsigned j = 0; j < m + 1; ++j) {
            polys.push_back(Polynomial<F>::random(t, io.rng()));
          }
          ByteWriter w;
          for (const auto& f : polys) write_elem(w, f(eval_point<F>(i)));
          io.send(i, row_tag, std::move(w).take());
        }
        CoinPool<F> pool;
        for (auto& c : genesis[io.id()]) pool.add(std::move(c));
        (void)coin_expose<F>(io, pool.take(), 0);
        io.sync();  // skip combo round (silent)
      });
  expect_success_and_unanimity(run, n, m, {4});
}

TEST(AdversaryTest, LyingGradeCaster) {
  // A Byzantine player grade-casts a fabricated clique + fabricated
  // polynomials. If the leader coin selects it, BA must reject (vote 0)
  // and the loop must retry; otherwise it is ignored. Either way honest
  // players end unanimous. Several seeds exercise both paths.
  const int n = 13, t = 2;
  int led = 0;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    auto genesis = trusted_dealer_coins<F>(n, t, 10, 100 + seed);
    AttackRun run;
    run.results.resize(n);
    run.coins.assign(n, {});
    Cluster cluster(n, t, 100 + seed);
    cluster.run(
        [&](PartyIo& io) {
          CoinPool<F> pool;
          for (auto& c : genesis[io.id()]) pool.add(std::move(c));
          auto result = coin_gen<F>(io, 2, pool);
          run.results[io.id()] = result;
          if (!result.success) return;
          auto sealed = result.sealed_coins(static_cast<unsigned>(io.t()));
          for (unsigned h = 0; h < 2; ++h) {
            run.coins[io.id()].push_back(
                coin_expose<F>(io, sealed[h], 100 + h));
          }
        },
        {6},
        [&](PartyIo& io) {
          // Round 1: deal honestly-shaped rows (degree t) so it may enter
          // cliques.
          std::vector<Polynomial<F>> polys;
          for (unsigned j = 0; j < 3; ++j) {
            polys.push_back(Polynomial<F>::random(t, io.rng()));
          }
          const auto row_tag = make_tag(ProtoId::kBitGen, 0, 0);
          for (int i = 0; i < io.n(); ++i) {
            ByteWriter w;
            for (const auto& f : polys) write_elem(w, f(eval_point<F>(i)));
            io.send(i, row_tag, std::move(w).take());
          }
          CoinPool<F> pool;
          for (auto& c : genesis[io.id()]) pool.add(std::move(c));
          (void)coin_expose<F>(io, pool.take(), 0);
          // Round 2: silent in combos.
          io.sync();
          // The leader draw; honest players read the grade-cast below
          // only when it elected this player.
          const auto drawn = coin_expose<F>(io, pool.take(), 1);
          if (drawn && drawn->to_uint() % n == 6) ++led;
          // Grade-cast rounds: fabricate a clique message claiming all of
          // {0..4t} with zero polynomials.
          ByteWriter lie;
          lie.u8(static_cast<std::uint8_t>(4 * t + 1));
          for (int j = 0; j <= 4 * t; ++j) {
            lie.u8(static_cast<std::uint8_t>(j));
            for (unsigned c = 0; c <= t; ++c) write_elem(lie, F::zero());
          }
          io.send_all(make_tag(ProtoId::kGradeCast, 0, 0), lie.data());
          io.sync();
          io.sync();
          io.sync();
          // Then crash (stops voting in BA / leader exposures).
        });
    expect_success_and_unanimity(run, n, 2, {6});
  }
  // The seeds cover both paths: the liar leads in some runs, not all.
  EXPECT_GE(led, 1);
  EXPECT_LT(led, 6);
}

TEST(AdversaryTest, ProtocolNoiseFuzz) {
  // Faulty players spray random bytes with plausible tags on every round
  // for the whole protocol: nothing may crash, and honest players stay
  // unanimous. This fuzzes every deserialization path in the stack.
  const int n = 13, t = 2;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const std::vector<int> faulty = {2, 9};
    const auto run = run_attack(
        n, t, 200 + seed, 2, faulty, [&](PartyIo& io) {
          Chacha& rng = io.rng();
          for (int round = 0; round < 60; ++round) {
            for (int burst = 0; burst < 5; ++burst) {
              const auto proto = static_cast<ProtoId>(
                  1 + rng.uniform(10));
              const auto tag =
                  make_tag(proto, static_cast<unsigned>(rng.uniform(16)),
                           static_cast<unsigned>(rng.uniform(8)));
              std::vector<std::uint8_t> junk(rng.uniform(64));
              rng.fill_bytes(junk);
              io.send(static_cast<int>(rng.uniform(io.n())), tag,
                      std::move(junk));
            }
            io.sync();
          }
        });
    expect_success_and_unanimity(run, n, 2, {2, 9});
  }
}

TEST(AdversaryTest, MintedCoinsUnpredictableToCoalition) {
  // Information-theoretic unpredictability of a minted (not yet exposed)
  // coin: the t coalition shares of the sum polynomial are consistent
  // with EVERY possible coin value.
  const int n = 13, t = 2;
  const auto run = run_attack(n, t, 300, 2, {}, nullptr);
  // Suppose the adversary corrupted players 0 and 1 (any t players).
  for (unsigned h = 0; h < 2; ++h) {
    std::vector<PointValue<F>> known = {
        {eval_point<F>(0), run.results[0].coin_shares[h]},
        {eval_point<F>(1), run.results[1].coin_shares[h]},
    };
    for (std::uint64_t candidate : {0ull, 1ull, 0xFFFFull}) {
      auto pts = known;
      pts.push_back({F::zero(), F::from_uint(candidate)});
      const auto f = lagrange_interpolate<F>(pts);
      EXPECT_LE(f.degree(), static_cast<int>(t));
    }
  }
}

TEST(AdversaryTest, DprbgSurvivesByzantineNoiseAcrossRefills) {
  // Full D-PRBG stream with persistent noise injectors: refills + draws
  // stay unanimous.
  const int n = 13, t = 2;
  auto genesis = trusted_dealer_coins<F>(n, t, 8, 400);
  const int kDraws = 20;
  std::vector<std::vector<std::optional<F>>> streams(n);
  Cluster cluster(n, t, 400);
  cluster.run(
      [&](PartyIo& io) {
        DPrbg<F>::Options opts;
        opts.batch_size = 10;
        opts.reserve = 4;
        DPrbg<F> prbg(opts, genesis[io.id()]);
        for (int d = 0; d < kDraws; ++d) {
          streams[io.id()].push_back(prbg.next_coin(io));
        }
      },
      {5, 11},
      [&](PartyIo& io) {
        Chacha& rng = io.rng();
        for (int round = 0; round < 200; ++round) {
          const auto tag = make_tag(
              static_cast<ProtoId>(1 + rng.uniform(10)),
              static_cast<unsigned>(rng.uniform(4096)),
              static_cast<unsigned>(rng.uniform(8)));
          std::vector<std::uint8_t> junk(rng.uniform(32));
          rng.fill_bytes(junk);
          io.send_all(tag, junk);
          io.sync();
        }
      });
  for (int d = 0; d < kDraws; ++d) {
    std::optional<F> ref;
    for (int i = 0; i < n; ++i) {
      if (i == 5 || i == 11) continue;
      ASSERT_TRUE(streams[i][d].has_value())
          << "player " << i << " draw " << d;
      if (!ref) ref = *streams[i][d];
      EXPECT_EQ(*streams[i][d], *ref) << "player " << i << " draw " << d;
    }
  }
}

TEST(AdversaryTest, WrongSigmaSharesAtExposeTime) {
  // Qualified Byzantine players contribute corrupted sigma shares during
  // exposure; Berlekamp-Welch absorbs them (Theorem 1's mechanism).
  const int n = 13, t = 2;
  auto genesis = trusted_dealer_coins<F>(n, t, 10, 500);
  const unsigned m = 4;
  std::vector<std::vector<std::optional<F>>> coins(n);
  Cluster cluster(n, t, 500);
  // Everyone runs Coin-Gen honestly; players 3 and 7 corrupt only the
  // expose phase.
  cluster.run(std::vector<Cluster::Program>(n, [&](PartyIo& io) {
    CoinPool<F> pool;
    for (auto& c : genesis[io.id()]) pool.add(std::move(c));
    auto result = coin_gen<F>(io, m, pool);
    ASSERT_TRUE(result.success);
    auto sealed = result.sealed_coins(static_cast<unsigned>(io.t()));
    const bool corrupt = io.id() == 3 || io.id() == 7;
    for (unsigned h = 0; h < m; ++h) {
      SealedCoin<F> coin = sealed[h];
      if (corrupt && coin.share) {
        coin.share = *coin.share + F::one();  // subtly wrong
      }
      coins[io.id()].push_back(coin_expose<F>(io, coin, 100 + h));
    }
  }));
  for (unsigned h = 0; h < m; ++h) {
    std::optional<F> ref;
    for (int i = 0; i < n; ++i) {
      if (i == 3 || i == 7) continue;
      ASSERT_TRUE(coins[i][h].has_value());
      if (!ref) ref = *coins[i][h];
      EXPECT_EQ(*coins[i][h], *ref);
    }
  }
}

}  // namespace
}  // namespace dprbg
