// Committee failover (src/beacon/beacon_failover.h): the beacon keeps
// emitting when a committee is evicted, crashed, stalled, or has more
// than t members banned by the cluster's misbehavior manager.
//
// The load-bearing claim is the full-drop rule: an evicted committee
// contributes NOTHING to the combination, so the degraded output is a
// pure function of the surviving committee set — "evict committee c" and
// "run from scratch without committee c" must produce the same beacon.
// The HealthBoard's latched gates are what keep an eviction from
// deadlocking the evicted committee's own roster barriers; the unit test
// pins the latch semantics directly.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "beacon/beacon.h"
#include "beacon/beacon_failover.h"
#include "chaos_util.h"
#include "gf/gf2.h"
#include "net/fault.h"
#include "net/misbehavior.h"

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

TEST(HealthBoardTest, LatchedGatesAndMinLiveFloor) {
  FailoverPolicy policy;  // min_live = 1
  HealthBoard board(2, 4, policy);

  // Gates latch on first consult; eviction only closes future gates.
  EXPECT_TRUE(board.may_launch(0, 0, false));
  EXPECT_TRUE(board.evict(0, 2, EvictionReason::kScripted));
  EXPECT_TRUE(board.may_launch(0, 0, false));  // latched open stays open
  EXPECT_TRUE(board.may_launch(0, 1, false));  // batches before evicted_at
  EXPECT_FALSE(board.may_launch(0, 2, false));
  EXPECT_TRUE(board.launched(0, 0));
  EXPECT_FALSE(board.launched(0, 2));
  EXPECT_FALSE(board.launched(0, 3));  // never consulted -> not launched
  EXPECT_FALSE(board.may_expose(0));
  EXPECT_EQ(board.health(0), CommitteeHealth::kEvicted);
  EXPECT_EQ(board.reason(0), EvictionReason::kScripted);
  EXPECT_EQ(board.evicted_at(0), 2u);
  EXPECT_TRUE(board.evict(0, 1, EvictionReason::kStalled));  // idempotent
  EXPECT_EQ(board.reason(0), EvictionReason::kScripted);     // first wins

  // The min_live floor refuses to black out the beacon.
  EXPECT_FALSE(board.evict(1, 0, EvictionReason::kStalled));
  EXPECT_EQ(board.health(1), CommitteeHealth::kLive);
  EXPECT_TRUE(board.may_expose(1));
  EXPECT_EQ(board.live_count(), 1u);

  // Lagging flips back to live on progress.
  board.mark_lagging(1);
  EXPECT_EQ(board.health(1), CommitteeHealth::kLagging);
  board.report_batch_done(1, 0);
  EXPECT_EQ(board.health(1), CommitteeHealth::kLive);
  EXPECT_EQ(board.batches_done(1), 1u);

  const HealthCounters c = board.counters();
  EXPECT_EQ(c.evictions, 1u);
  EXPECT_EQ(c.cancelled_batches, 1u);
  EXPECT_EQ(c.lagging_transitions, 1u);

  // Past the fault bound: the first consult of a gate evicts for
  // misbehavior, and the latch — not the flag — answers every later
  // consult of that gate.
  HealthBoard bound(2, 4, policy);
  EXPECT_TRUE(bound.may_launch(0, 0, false));
  EXPECT_FALSE(bound.may_launch(0, 1, true));
  EXPECT_EQ(bound.health(0), CommitteeHealth::kEvicted);
  EXPECT_EQ(bound.reason(0), EvictionReason::kMisbehavior);
  EXPECT_EQ(bound.evicted_at(0), 1u);
  EXPECT_FALSE(bound.may_launch(0, 1, false));
  EXPECT_TRUE(bound.may_launch(0, 0, true));
  // The min_live floor still refuses the last live committee.
  EXPECT_TRUE(bound.may_launch(1, 0, true));
  EXPECT_EQ(bound.health(1), CommitteeHealth::kLive);
  EXPECT_EQ(bound.reason(1), EvictionReason::kNone);
}

// Full-drop determinism: evicting committee 1 (scripted, before launch)
// leaves exactly the solo committee-0 beacon, flagged degraded with
// every window masked to committee 0 only.
TEST(BeaconFailoverTest, ScriptedEvictionDropsCommitteeFromCombine) {
  auto solo_opts = base_options();
  solo_opts.committees = 1;
  Beacon<F> solo(solo_opts);
  const auto ref = solo.run();
  ASSERT_TRUE(ref.success);

  auto opts = base_options();
  opts.chaos.scripted_evictions.push_back({1u, 0u});
  Beacon<F> beacon(opts);
  const auto out = beacon.run();

  ASSERT_TRUE(out.success);
  EXPECT_TRUE(out.degraded);
  EXPECT_EQ(out.committees[1].health, CommitteeHealth::kEvicted);
  EXPECT_EQ(out.committees[1].reason, EvictionReason::kScripted);
  EXPECT_TRUE(out.committees[1].coins.empty());
  EXPECT_EQ(out.committees[0].health, CommitteeHealth::kLive);
  EXPECT_EQ(out.beacon, ref.beacon);
  ASSERT_EQ(out.window_mask.size(), opts.batches);
  for (std::uint32_t mask : out.window_mask) EXPECT_EQ(mask, 0b01u);
  EXPECT_EQ(out.health.evictions, 1u);
  EXPECT_GT(out.health.cancelled_batches, 0u);
}

// The full-drop rule discards even pre-eviction batches, so the eviction
// batch does not matter: evicting committee 1 at batch 0 and at batch 2
// yield the same surviving output.
TEST(BeaconFailoverTest, EvictionAtAnyBatchYieldsSameSurvivorOutput) {
  auto early_opts = base_options();
  early_opts.chaos.scripted_evictions.push_back({1u, 0u});
  Beacon<F> early(early_opts);
  const auto out_early = early.run();

  auto late_opts = base_options();
  late_opts.chaos.scripted_evictions.push_back({1u, 2u});
  Beacon<F> late(late_opts);
  const auto out_late = late.run();

  ASSERT_TRUE(out_early.success);
  ASSERT_TRUE(out_late.success);
  EXPECT_TRUE(out_late.degraded);
  EXPECT_EQ(out_late.committees[1].health, CommitteeHealth::kEvicted);
  EXPECT_EQ(out_late.committees[1].evicted_at, 2u);
  EXPECT_EQ(out_late.committees[1].batches_done, 2u);  // ran batches 0, 1
  EXPECT_EQ(out_early.beacon, out_late.beacon);
  EXPECT_EQ(out_early.window_mask, out_late.window_mask);
}

// A committee whose members all die mid-run (after batch 0, before
// exposing anything) is detected by the combine-time crash fallback even
// with the wall-clock monitor off, and the survivors' output is the solo
// beacon.
TEST(BeaconFailoverTest, CrashedCommitteeDetectedAndOutputDegraded) {
  auto solo_opts = base_options();
  solo_opts.committees = 1;
  Beacon<F> solo(solo_opts);
  const auto ref = solo.run();

  auto opts = base_options();
  opts.chaos.crash_committee = 1;
  opts.chaos.crash_at_batch = 1;
  Beacon<F> beacon(opts);
  const auto out = beacon.run();

  ASSERT_TRUE(out.success);
  EXPECT_TRUE(out.degraded);
  EXPECT_EQ(out.committees[1].health, CommitteeHealth::kEvicted);
  EXPECT_EQ(out.committees[1].reason, EvictionReason::kCrashed);
  EXPECT_EQ(out.committees[1].batches_done, 1u);
  EXPECT_TRUE(out.committees[1].coins.empty());
  EXPECT_EQ(out.beacon, ref.beacon);
  for (std::uint32_t mask : out.window_mask) EXPECT_EQ(mask, 0b01u);
}

// Wall-clock failover: committee 1 runs at a simulated 150 ms per round
// while committee 0 runs at full speed; the budget monitor evicts it and
// the beacon finishes from committee 0 alone. Timing-dependent by
// design, so the budget is generous: the only way this flakes is a
// healthy committee taking > 1.2 s per batch.
TEST(BeaconFailoverTest, WallClockMonitorEvictsStalledCommittee) {
  auto solo_opts = base_options();
  solo_opts.committees = 1;
  solo_opts.depth = 1;
  Beacon<F> solo(solo_opts);
  const auto ref = solo.run();

  auto opts = base_options();
  opts.depth = 1;
  opts.failover.wall_budget_ms = 600;
  opts.failover.lagging_after = 0.5;
  opts.failover.evict_after = 2.0;
  opts.failover.poll_ms = 10;
  Beacon<F> beacon(opts);
  beacon.committee(1).set_round_latency_us(150000);
  const auto out = beacon.run();

  ASSERT_TRUE(out.success);
  EXPECT_TRUE(out.degraded);
  EXPECT_EQ(out.committees[1].health, CommitteeHealth::kEvicted);
  // kCrashed if the monitor fired before batch 0 completed, kStalled
  // after; both mean "over wall budget" here.
  EXPECT_TRUE(out.committees[1].reason == EvictionReason::kCrashed ||
              out.committees[1].reason == EvictionReason::kStalled)
      << "reason=" << to_string(out.committees[1].reason);
  EXPECT_EQ(out.committees[0].health, CommitteeHealth::kLive);
  EXPECT_EQ(out.beacon, ref.beacon);
  EXPECT_GE(out.health.evictions, 1u);
}

// Two hostages of committee 1 (n=7, t=1) delay every outgoing envelope
// by a round. The cluster's misbehavior manager scores each late
// envelope against its sender; under its default policy both bans land
// during batch 1, so the batch-2 launch gate finds the committee past
// its fault bound and evicts it for misbehavior, leaving the solo
// committee-0 beacon.
TEST(BeaconFailoverTest, MoreThanTBannedMembersEvictCommittee) {
  auto solo_opts = base_options();
  solo_opts.committees = 1;
  solo_opts.depth = 1;
  Beacon<F> solo(solo_opts);
  const auto ref = solo.run();

  auto opts = base_options();
  opts.depth = 1;  // serial batches: each gate sees a settled ban state
  Beacon<F> beacon(opts);
  beacon.cluster().set_misbehavior_manager(
      std::make_shared<MisbehaviorManager>(beacon.cluster().n()));
  const int n = static_cast<int>(opts.committee_size);
  constexpr int kSecondHostage = 5;
  constexpr std::uint64_t kRounds = 40;
  FaultPlan plan = chaos::slow_drip_plan(/*hostage=*/2, n, kRounds);
  plan.charge(kSecondHostage);
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    for (int to = 0; to < n; ++to) {
      if (to == kSecondHostage) continue;
      plan.add(r, kSecondHostage, to, FaultSpec{FaultAction::kDelay, 1});
    }
  }
  beacon.committee(1).set_fault_injector(std::move(plan));
  const auto out = beacon.run();

  ASSERT_TRUE(out.success);
  EXPECT_TRUE(out.degraded);
  EXPECT_EQ(beacon.committee(1).banned_members(), 2);
  EXPECT_EQ(beacon.committee(0).banned_members(), 0);
  EXPECT_EQ(out.committees[1].health, CommitteeHealth::kEvicted);
  EXPECT_EQ(out.committees[1].reason, EvictionReason::kMisbehavior);
  EXPECT_EQ(out.committees[1].evicted_at, 2u);
  EXPECT_TRUE(out.committees[1].coins.empty());
  EXPECT_EQ(out.beacon, ref.beacon);
  for (std::uint32_t mask : out.window_mask) EXPECT_EQ(mask, 0b01u);
}

// Exactly t banned members is within the paper's fault bound: committee
// 1's one hostage ends up banned, yet the committee stays live and keeps
// contributing, and committee 0 is bit-for-bit the solo run.
TEST(BeaconFailoverTest, ExactlyTBannedMembersKeepCommittee) {
  auto solo_opts = base_options();
  solo_opts.committees = 1;
  solo_opts.depth = 1;
  Beacon<F> solo(solo_opts);
  const auto ref = solo.run();

  auto opts = base_options();
  opts.depth = 1;
  Beacon<F> beacon(opts);
  beacon.cluster().set_misbehavior_manager(
      std::make_shared<MisbehaviorManager>(beacon.cluster().n()));
  beacon.committee(1).set_fault_injector(chaos::slow_drip_plan(
      /*hostage=*/2, static_cast<int>(opts.committee_size), /*rounds=*/40));
  const auto out = beacon.run();

  ASSERT_TRUE(out.success);
  EXPECT_EQ(beacon.committee(1).banned_members(), 1);
  EXPECT_EQ(out.committees[1].health, CommitteeHealth::kLive);
  EXPECT_EQ(out.committees[1].reason, EvictionReason::kNone);
  EXPECT_EQ(out.committees[0].coins, ref.committees[0].coins);
  EXPECT_EQ(out.health.evictions, 0u);
}

}  // namespace
}  // namespace dprbg
