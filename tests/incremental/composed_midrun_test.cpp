// Property suite for the composed tier: random churn traces driven through
// mid-run runs whose run-start snapshot is injected from an attached
// IncrementalEngine. The contract under test is the tentpole invariant —
// after a run's mid-run splices and post-run flush land in the
// MutableOverlay through the engine's SpliceObserver, the NEXT
// IncrementalEngine::snapshot() (recomputing only the dirtied balls) is
// bitwise identical to a cold MutableOverlay::snapshot() rebuild — across
// membership policies and adversarial schedule strategies, for many seeded
// trace interleavings.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "adversary/midrun_schedule.hpp"
#include "dynamics/midrun.hpp"
#include "graph/categories.hpp"
#include "incremental/engine.hpp"
#include "sim/runner.hpp"

namespace byz {
namespace {

using graph::NodeId;

struct TraceTotals {
  std::uint64_t balls_reused = 0;
  std::uint64_t events_applied = 0;
};

/// Drives `epochs` random mid-run epochs: each run executes on the
/// incremental snapshot, splices strike the overlay (and the tracker)
/// while it floods, the tail flushes after, and the next epoch's
/// incremental snapshot is asserted bitwise against a cold rebuild.
TraceTotals drive_random_trace(proto::MembershipPolicy policy,
                               adv::MidRunScheduleStrategy strategy,
                               std::uint64_t seed, std::uint32_t epochs,
                               bool verify_mode) {
  constexpr NodeId kN0 = 320;
  constexpr std::uint32_t kD = 6;
  dynamics::MutableOverlay overlay(kN0, kD, 0, util::mix_seed(seed, 1));
  incremental::IncrementalEngine inc(
      overlay, {/*verify_against_full=*/verify_mode});

  util::Xoshiro256 place_rng(util::mix_seed(seed, 2));
  std::vector<bool> byz = graph::random_byzantine_mask(
      kN0, sim::derive_byz_count(kN0, 0.7), place_rng);

  util::Xoshiro256 trace_rng(util::mix_seed(seed, 3));
  util::Xoshiro256 churn_rng(util::mix_seed(seed, 4));
  proto::ProtocolConfig cfg;
  dynamics::MidRunConfig mid_cfg;
  mid_cfg.policy = policy;
  mid_cfg.schedule_strategy = strategy;

  TraceTotals totals;
  for (std::uint32_t e = 0; e < epochs; ++e) {
    dynamics::ChurnEpoch epoch;
    epoch.joins = static_cast<std::uint32_t>(trace_rng.below(5));
    epoch.sybil_joins = static_cast<std::uint32_t>(trace_rng.below(2));
    epoch.leaves = static_cast<std::uint32_t>(trace_rng.below(5));
    const std::uint64_t horizon = dynamics::expected_horizon_rounds(
        overlay.num_alive(), kD, cfg.schedule);
    const auto schedule = adv::derive_adversarial_schedule(
        epoch, horizon, util::mix_seed(seed, 100 + e), strategy, kD,
        cfg.schedule);

    // The oracle: the incremental snapshot the run will execute on must be
    // bitwise identical to a cold full rebuild — including the stable-id
    // mapping — with only the previous epoch's dirtied balls recomputed.
    const auto snap = inc.snapshot();
    const auto full = overlay.snapshot();
    EXPECT_TRUE(incremental::overlays_identical(snap.overlay, full.overlay))
        << "epoch " << e;
    EXPECT_EQ(snap.dense_to_stable, full.dense_to_stable) << "epoch " << e;
    EXPECT_EQ(inc.stats().last_recomputed + inc.stats().last_reused,
              overlay.num_alive());
    if (e > 0) totals.balls_reused += inc.stats().last_reused;

    dynamics::MidRunComposed composed;
    composed.snapshot = &snap;
    auto strategy_impl = adv::make_strategy(adv::StrategyKind::kFakeColor);
    const auto out = dynamics::run_counting_midrun(
        overlay, byz, *strategy_impl, cfg, util::mix_seed(seed, 200 + e),
        schedule, mid_cfg, adv::ChurnAdversary::kNone, churn_rng, &composed);
    totals.events_applied += out.stats.events_applied;

    // Stable-id mapping stays coherent across the flush: every run id
    // resolves, and the Byzantine mask tracks the id space.
    for (const NodeId s : out.run_to_stable) {
      EXPECT_NE(s, graph::kInvalidNode) << "epoch " << e;
    }
    EXPECT_EQ(byz.size(), overlay.id_bound());
  }
  // One final post-flush check so the LAST epoch's splices are covered too.
  const auto snap = inc.snapshot();
  const auto full = overlay.snapshot();
  EXPECT_TRUE(incremental::overlays_identical(snap.overlay, full.overlay));
  EXPECT_EQ(snap.dense_to_stable, full.dense_to_stable);
  return totals;
}

TEST(ComposedMidRunProperty, IncrementalSnapshotMatchesColdRebuildAcrossGrid) {
  for (const auto policy : {proto::MembershipPolicy::kTreatAsSilent,
                            proto::MembershipPolicy::kReadmitNextPhase}) {
    for (const auto strategy :
         {adv::MidRunScheduleStrategy::kUniform,
          adv::MidRunScheduleStrategy::kFrontierLeaves,
          adv::MidRunScheduleStrategy::kBoundaryJoinStorm}) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        const auto totals =
            drive_random_trace(policy, strategy, seed, /*epochs=*/4,
                               /*verify_mode=*/false);
        // The trace must exercise the mid-run path (events landing during
        // runs) and the incremental path (clean balls actually reused).
        EXPECT_GT(totals.events_applied, 0u)
            << adv::to_string(strategy) << " seed " << seed;
        EXPECT_GT(totals.balls_reused, 0u)
            << adv::to_string(strategy) << " seed " << seed;
      }
    }
  }
}

TEST(ComposedMidRunProperty, VerifyModeStaysCleanUnderMidRunSplices) {
  // verify_against_full cross-checks EVERY incremental snapshot against the
  // full rebuild inside the engine and throws on any divergence — driving
  // it through mid-run splices is the strictest form of the exactness
  // oracle (the engine observes joins/leaves it did not apply itself).
  for (const auto strategy : {adv::MidRunScheduleStrategy::kUniform,
                              adv::MidRunScheduleStrategy::kFrontierLeaves}) {
    EXPECT_NO_THROW((void)drive_random_trace(
        proto::MembershipPolicy::kReadmitNextPhase, strategy, 99,
        /*epochs=*/3, /*verify_mode=*/true));
  }
}

TEST(ComposedMidRunProperty, InjectedSnapshotLeavesOutcomeUnchanged) {
  // Snapshot injection is pure plumbing: a mid-run trial executed on the
  // incremental snapshot must produce the same MidRunOutcome bit for bit
  // as the standalone feed's own full rebuild (the E24/E26 anchors
  // transfer to the composed tier unchanged).
  constexpr NodeId kN0 = 256;
  constexpr std::uint32_t kD = 6;
  for (std::uint64_t seed = 5; seed <= 7; ++seed) {
    dynamics::MutableOverlay inc_overlay(kN0, kD, 0, util::mix_seed(seed, 1));
    dynamics::MutableOverlay ref_overlay(kN0, kD, 0, util::mix_seed(seed, 1));
    incremental::IncrementalEngine inc(inc_overlay);

    util::Xoshiro256 place_rng(util::mix_seed(seed, 2));
    std::vector<bool> inc_byz = graph::random_byzantine_mask(
        kN0, sim::derive_byz_count(kN0, 0.7), place_rng);
    std::vector<bool> ref_byz = inc_byz;

    dynamics::ChurnEpoch epoch;
    epoch.joins = 6;
    epoch.sybil_joins = 1;
    epoch.leaves = 5;
    proto::ProtocolConfig cfg;
    const auto schedule = adv::derive_adversarial_schedule(
        epoch,
        dynamics::expected_horizon_rounds(kN0, kD, cfg.schedule),
        util::mix_seed(seed, 3), adv::MidRunScheduleStrategy::kUniform, kD,
        cfg.schedule);
    dynamics::MidRunConfig mid_cfg;

    const auto snap = inc.snapshot();
    dynamics::MidRunComposed composed;
    composed.snapshot = &snap;
    util::Xoshiro256 inc_rng(util::mix_seed(seed, 4));
    util::Xoshiro256 ref_rng(util::mix_seed(seed, 4));
    auto inc_strategy = adv::make_strategy(adv::StrategyKind::kFakeColor);
    auto ref_strategy = adv::make_strategy(adv::StrategyKind::kFakeColor);
    const auto composed_out = dynamics::run_counting_midrun(
        inc_overlay, inc_byz, *inc_strategy, cfg, 77, schedule, mid_cfg,
        adv::ChurnAdversary::kNone, inc_rng, &composed);
    const auto standalone_out = dynamics::run_counting_midrun(
        ref_overlay, ref_byz, *ref_strategy, cfg, 77, schedule, mid_cfg,
        adv::ChurnAdversary::kNone, ref_rng);
    EXPECT_TRUE(composed_out == standalone_out) << "seed " << seed;
    EXPECT_EQ(inc_byz, ref_byz);
  }
}

}  // namespace
}  // namespace byz
