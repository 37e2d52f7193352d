// Epoch reconfiguration (beacon_failover.h EpochBridge +
// dprbg/proactive.h cross_roster_reshare): a sealed CoinPool migrates
// from a retiring roster to its replacement without exposing any coin.
//
// The acceptance claim: expose the coins on the OLD roster (recording
// their values), migrate the still-sealed pool across the bridge, expose
// the migrated coins on the NEW roster — the values must match exactly,
// the old roster must come out shareless, and the pool's order and
// consumed() counter must be untouched (so exposure instance ids stay
// aligned across the epoch boundary).

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "beacon/beacon_failover.h"
#include "coin/coin_expose.h"
#include "dprbg/coin_pool.h"
#include "dprbg/trusted_dealer.h"
#include "gf/gf2.h"
#include "net/cluster.h"
#include "net/committee.h"

namespace dprbg {
namespace {

using F = GF2_64;

constexpr int kRosterN = 7;
constexpr unsigned kT = 1;
constexpr std::uint64_t kSeed = 987654;
constexpr int kCoins = 3;  // pool coins; genesis coin 3 is the challenge

struct MigrationRun {
  std::vector<std::vector<F>> old_vals;  // per old member, pre-migration
  std::vector<std::vector<F>> new_vals;  // per new member, post-migration
  std::vector<char> migrate_ok;
  std::vector<char> old_shareless;
  std::vector<std::size_t> old_remaining;
  std::vector<std::size_t> old_consumed;
};

// The full handover, optionally with one old member crashed from the
// start (it participates in nothing — the reshare must tolerate losing
// up to n_old - (t_old + 1) dealers).
MigrationRun run_migration(int crashed_old_member = -1) {
  const int total = 2 * kRosterN;
  auto genesis =
      trusted_dealer_coins<F>(kRosterN, kT, kCoins + 1, kSeed);

  MigrationRun out;
  out.old_vals.resize(kRosterN);
  out.new_vals.resize(kRosterN);
  out.migrate_ok.assign(total, 0);
  out.old_shareless.assign(kRosterN, 0);
  out.old_remaining.assign(kRosterN, 0);
  out.old_consumed.assign(kRosterN, 0);

  Cluster cluster(total, static_cast<int>(kT), kSeed);
  std::vector<int> old_members, new_members;
  for (int i = 0; i < kRosterN; ++i) old_members.push_back(i);
  for (int i = kRosterN; i < total; ++i) new_members.push_back(i);
  EpochBridge bridge(cluster, old_members, new_members);

  cluster.run(std::vector<Cluster::Program>(total, [&](PartyIo& io) {
    const int id = io.id();
    if (id == crashed_old_member) return;
    if (id < kRosterN) {
      Endpoint& oep = bridge.old_roster().endpoint(io);
      CoinPool<F> pool;
      for (int h = 0; h < kCoins; ++h) pool.add(genesis[id][h]);
      const SealedCoin<F> challenge = genesis[id][kCoins];
      // Record the coin values on the old roster before migration.
      for (int h = 0; h < kCoins; ++h) {
        const auto v = coin_expose<F>(oep, pool.coins()[h],
                                      static_cast<unsigned>(h));
        if (v) out.old_vals[id].push_back(*v);
      }
      out.migrate_ok[id] =
          bridge.migrate_pool<F>(io, pool, challenge) ? 1 : 0;
      bool shareless = true;
      for (const auto& c : pool.coins()) {
        shareless = shareless && !c.share.has_value() && c.degree == kT;
      }
      out.old_shareless[id] = shareless ? 1 : 0;
      out.old_remaining[id] = pool.remaining();
      out.old_consumed[id] = pool.consumed();
    } else {
      // New members start with shareless views of the same pool.
      CoinPool<F> pool = EpochBridge::shareless_pool<F>(kCoins, kT);
      const SealedCoin<F> challenge{std::nullopt, kT};
      out.migrate_ok[id] =
          bridge.migrate_pool<F>(io, pool, challenge) ? 1 : 0;
      Endpoint& nep = bridge.new_roster().endpoint(io);
      for (int h = 0; h < kCoins; ++h) {
        const auto v = coin_expose<F>(nep, pool.coins()[h],
                                      static_cast<unsigned>(h));
        if (v) out.new_vals[id - kRosterN].push_back(*v);
      }
    }
  }));
  return out;
}

void expect_values_preserved(const MigrationRun& out, int crashed = -1) {
  int ref = -1;
  for (int i = 0; i < kRosterN; ++i) {
    if (i == crashed) continue;
    if (ref < 0) ref = i;
    ASSERT_EQ(out.old_vals[i].size(), static_cast<std::size_t>(kCoins))
        << "old member " << i;
    EXPECT_EQ(out.old_vals[i], out.old_vals[ref]);
  }
  ASSERT_GE(ref, 0);
  for (int j = 0; j < kRosterN; ++j) {
    ASSERT_EQ(out.new_vals[j].size(), static_cast<std::size_t>(kCoins))
        << "new member " << j;
    // The migrated sharing exposes to exactly the pre-migration values.
    EXPECT_EQ(out.new_vals[j], out.old_vals[ref]) << "new member " << j;
  }
}

TEST(EpochTest, MigrationPreservesExposedValues) {
  const MigrationRun out = run_migration();
  for (int p = 0; p < 2 * kRosterN; ++p) {
    EXPECT_TRUE(out.migrate_ok[p]) << "player " << p;
  }
  expect_values_preserved(out);
  for (int i = 0; i < kRosterN; ++i) {
    EXPECT_TRUE(out.old_shareless[i]) << "old member " << i;
    EXPECT_EQ(out.old_remaining[i], static_cast<std::size_t>(kCoins));
    EXPECT_EQ(out.old_consumed[i], 0u);  // migration never pops the pool
  }
}

TEST(EpochTest, ReshareToleratesCrashedDealer) {
  const MigrationRun out = run_migration(/*crashed_old_member=*/6);
  for (int p = 0; p < 2 * kRosterN; ++p) {
    if (p == 6) continue;
    EXPECT_TRUE(out.migrate_ok[p]) << "player " << p;
  }
  expect_values_preserved(out, /*crashed=*/6);
}

TEST(EpochTest, RosterLifecycleIsForwardOnly) {
  Cluster cluster(kRosterN, static_cast<int>(kT), kSeed);
  Committee com(cluster);
  EXPECT_EQ(com.state(), Committee::RosterState::kActive);
  com.begin_drain();
  EXPECT_EQ(com.state(), Committee::RosterState::kDraining);
  com.retire();
  EXPECT_EQ(com.state(), Committee::RosterState::kRetired);
  com.begin_drain();  // no effect after retirement
  EXPECT_EQ(com.state(), Committee::RosterState::kRetired);
  com.retire();  // idempotent
  EXPECT_EQ(com.state(), Committee::RosterState::kRetired);
}

}  // namespace
}  // namespace dprbg
