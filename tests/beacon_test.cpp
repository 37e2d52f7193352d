// Sharded beacon (src/beacon/beacon.h): golden determinism and the
// XOR-combination contract.
//
// The beacon's output must be a pure function of its Options seed and
// shape — independent of pipeline depth, simulated link latency, and how
// the committee threads happen to interleave — because honest players in
// a deployment re-derive the same beacon from the same genesis. The
// golden values below pin that function; they were produced by this
// harness and must never drift (a drift means the transcript depends on
// scheduling, which would be a soundness bug, not a refactor).

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "beacon/beacon.h"
#include "coin/coin_gen.h"
#include "coin/coin_pipeline.h"
#include "dprbg/coin_pool.h"
#include "dprbg/trusted_dealer.h"
#include "gf/gf2.h"
#include "net/cluster.h"

namespace dprbg {
namespace {

using F = GF2_64;

typename Beacon<F>::Options base_options() {
  typename Beacon<F>::Options opts;
  opts.committees = 2;
  opts.committee_size = 7;
  opts.committee_t = 1;
  opts.coins_per_batch = 2;
  opts.batches = 3;
  opts.depth = 2;
  opts.seed = 20260807;
  return opts;
}

std::vector<std::uint64_t> beacon_bits(const typename Beacon<F>::Output& out) {
  std::vector<std::uint64_t> bits;
  for (const F& v : out.beacon) bits.push_back(v.to_uint());
  return bits;
}

TEST(BeaconTest, OutputInvariantAcrossDepthAndLatency) {
  std::vector<std::uint64_t> reference;
  std::vector<std::vector<std::uint64_t>> reference_committees;
  for (unsigned depth : {1u, 2u, 4u}) {
    for (unsigned latency_us : {0u, 500u}) {
      SCOPED_TRACE("depth=" + std::to_string(depth) +
                   " latency=" + std::to_string(latency_us));
      auto opts = base_options();
      opts.depth = depth;
      opts.round_latency_us = latency_us;
      Beacon<F> beacon(opts);
      const auto out = beacon.run();
      ASSERT_TRUE(out.success);
      ASSERT_EQ(out.committees.size(), 2u);
      for (const auto& c : out.committees) {
        EXPECT_TRUE(c.unanimous);
        EXPECT_EQ(c.batches_ok, opts.batches);
      }
      EXPECT_EQ(beacon.cluster().stale_rejections(), 0u);
      EXPECT_EQ(beacon.cluster().foreign_rejections(), 0u);
      const auto bits = beacon_bits(out);
      ASSERT_EQ(bits.size(), 6u);  // batches * coins_per_batch
      std::vector<std::vector<std::uint64_t>> committees;
      for (const auto& c : out.committees) {
        std::vector<std::uint64_t> vals;
        for (const F& v : c.coins) vals.push_back(v.to_uint());
        committees.push_back(std::move(vals));
      }
      if (reference.empty()) {
        reference = bits;
        reference_committees = committees;
      } else {
        EXPECT_EQ(bits, reference);
        EXPECT_EQ(committees, reference_committees);
      }
    }
  }
  // The combination is field addition = XOR in GF(2^64).
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(reference[i],
              reference_committees[0][i] ^ reference_committees[1][i]);
  }
}

TEST(BeaconTest, DistinctSeedsDiverge) {
  auto opts = base_options();
  Beacon<F> a(opts);
  const auto out_a = a.run();
  opts.seed ^= 0x5EEDF00Dull;
  Beacon<F> b(opts);
  const auto out_b = b.run();
  ASSERT_TRUE(out_a.success);
  ASSERT_TRUE(out_b.success);
  EXPECT_NE(beacon_bits(out_a), beacon_bits(out_b));
}

// Committees must be independent: committee 0's coins with K=2 equal
// committee 0's coins with K=1 (same seed), because its genesis, roster,
// and stream slice do not depend on K.
TEST(BeaconTest, CommitteeZeroUnaffectedByAddingCommittees) {
  auto opts = base_options();
  opts.committees = 1;
  Beacon<F> solo(opts);
  const auto out_solo = solo.run();
  opts.committees = 2;
  Beacon<F> duo(opts);
  const auto out_duo = duo.run();
  ASSERT_TRUE(out_solo.success);
  ASSERT_TRUE(out_duo.success);
  EXPECT_EQ(out_solo.committees[0].coins, out_duo.committees[0].coins);
}

// The K=1 beacon is the raw pre-committee idiom: the same per-batch
// schedule driven directly over the cluster's PartyIo handles yields the
// same coins (the identity-committee bit-for-bit claim, exercised
// through the beacon's own scheduler).
TEST(BeaconTest, SingleCommitteeMatchesRawClusterReference) {
  auto opts = base_options();
  opts.committees = 1;
  opts.depth = 1;
  Beacon<F> beacon(opts);
  const auto out = beacon.run();
  ASSERT_TRUE(out.success);

  const int n = static_cast<int>(opts.committee_size);
  const unsigned genesis_count = opts.batches * (1 + kLeaderCoins);
  auto genesis = trusted_dealer_coins<F>(
      n, opts.committee_t, static_cast<int>(genesis_count),
      committee_seed(opts.seed, 0));
  Cluster cluster(n, static_cast<int>(opts.committee_t), opts.seed);
  std::vector<std::vector<F>> exposed(n);
  cluster.run(std::vector<Cluster::Program>(n, [&](PartyIo& io) {
    CoinPool<F> pool;
    for (auto& c : genesis[io.id()]) pool.add(std::move(c));
    unsigned idx = 0;
    for (unsigned b = 0; b < opts.batches; ++b) {
      CoinPool<F> sub;
      sub.add_batch(pool.take_batch(std::min<std::size_t>(
          1 + kLeaderCoins, pool.remaining())));
      const auto res = coin_gen<F>(io.instance(1 + b), opts.coins_per_batch,
                                   sub, kLeaderCoins);
      if (!sub.empty()) pool.add_batch(sub.take_batch(sub.remaining()));
      if (!res.success) continue;
      for (const auto& coin : res.sealed_coins(opts.committee_t)) {
        const auto v = coin_expose<F>(io, coin, idx++);
        if (v) exposed[io.id()].push_back(*v);
      }
    }
  }));
  EXPECT_EQ(out.committees[0].coins, exposed[0]);
  EXPECT_EQ(out.beacon, exposed[0]);
}

// Degraded-mode determinism (the full-drop rule end to end): a K=3
// beacon with committee 2 evicted mid-run emits exactly the beacon a
// from-scratch K=2 run produces — the survivors' XOR is a pure function
// of the surviving committee set, not of when the eviction landed.
TEST(BeaconTest, DegradedOutputMatchesSurvivorsFromScratch) {
  auto opts = base_options();
  opts.committees = 3;
  opts.chaos.scripted_evictions.push_back({2u, 1u});
  Beacon<F> degraded(opts);
  const auto out = degraded.run();

  auto ref_opts = base_options();  // committees 0 and 1, same seeds
  Beacon<F> survivors(ref_opts);
  const auto ref = survivors.run();

  ASSERT_TRUE(out.success);
  ASSERT_TRUE(ref.success);
  EXPECT_TRUE(out.degraded);
  EXPECT_FALSE(ref.degraded);
  EXPECT_EQ(out.committees[2].health, CommitteeHealth::kEvicted);
  EXPECT_EQ(out.beacon, ref.beacon);
  EXPECT_EQ(out.committees[0].coins, ref.committees[0].coins);
  EXPECT_EQ(out.committees[1].coins, ref.committees[1].coins);
  for (std::uint32_t mask : out.window_mask) EXPECT_EQ(mask, 0b011u);
}

}  // namespace
}  // namespace dprbg
