// Committee failover (src/beacon/beacon_failover.h): the beacon keeps
// emitting when a committee is evicted, crashed, stalled, or caught
// misbehaving.
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
#include <vector>

#include "beacon/beacon.h"
#include "beacon/beacon_failover.h"
#include "gf/gf2.h"
#include "net/fault.h"

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
  EXPECT_TRUE(board.may_launch(0, 0));
  EXPECT_TRUE(board.evict(0, 2, EvictionReason::kScripted));
  EXPECT_TRUE(board.may_launch(0, 0));  // latched open stays open
  EXPECT_TRUE(board.may_launch(0, 1));  // batches before evicted_at run
  EXPECT_FALSE(board.may_launch(0, 2));
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

// Misbehavior-score failover: committee 1 carries a heavy link-fault
// plan; its domain ledger crosses the eviction threshold at the first
// gate after the faults fire and the committee is dropped, leaving the
// solo committee-0 output.
TEST(BeaconFailoverTest, MisbehaviorScoreEvictsFaultyCommittee) {
  auto solo_opts = base_options();
  solo_opts.committees = 1;
  solo_opts.depth = 1;
  Beacon<F> solo(solo_opts);
  const auto ref = solo.run();

  auto opts = base_options();
  opts.depth = 1;
  opts.failover.misbehavior_threshold = 1;  // any charged effect evicts
  Beacon<F> beacon(opts);
  FaultPlanParams params;
  params.n = static_cast<int>(opts.committee_size);
  params.t = opts.committee_t;
  params.rounds = 12;
  params.fault_rate = 0.5;
  beacon.committee(1).set_fault_injector(random_fault_plan(params, 4242));
  const auto out = beacon.run();

  ASSERT_TRUE(out.success);
  EXPECT_TRUE(out.degraded);
  EXPECT_EQ(out.committees[1].health, CommitteeHealth::kEvicted);
  EXPECT_EQ(out.committees[1].reason, EvictionReason::kMisbehavior);
  EXPECT_GT(out.committees[1].evicted_at, 0u);  // batch 0 had launched
  EXPECT_GT(beacon.committee(1).ledger().faults.total(), 0u);
  EXPECT_EQ(out.beacon, ref.beacon);
}

}  // namespace
}  // namespace dprbg
