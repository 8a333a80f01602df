// Mid-run-churn equivalence suite — the E24 correctness anchor, the E26
// engine↔fastpath mid-run oracle, and the Verifier membership-policy
// properties:
//   (1) with an EMPTY round schedule, run_counting_midrun is bitwise
//       identical to the static proto::run_counting on the same snapshot —
//       statuses, estimates, phase/round counts, and every instrumentation
//       counter — under BOTH membership policies;
//   (2) on churn-free traces, treat-as-silent therefore never inflates any
//       estimate beyond the static-run bound (identity implies it; the
//       test asserts the bound explicitly so a future relaxation of (1)
//       still has to respect it);
//   (3) under real mid-run churn, treat-as-silent joiners are never
//       admitted — they finish the run kUndecided — while
//       readmit-next-phase admits them at phase boundaries;
//   (4) E26: at NONZERO mid-run churn rates the message-level engine and
//       the array fast path produce bitwise-identical MidRunOutcomes and
//       digest trails for every rate/policy/schedule-strategy combination
//       — including the adversarial frontier-leave and boundary-join-storm
//       schedules — and the comparison itself is deterministic
//       (repeatable bit for bit, the --jobs independence contract).
#include <gtest/gtest.h>

#include <algorithm>

#include "dynamics/midrun.hpp"
#include "graph/categories.hpp"
#include "sim/runner.hpp"

namespace byz {
namespace {

using graph::NodeId;

struct Case {
  NodeId n0;
  std::uint32_t d;
  adv::StrategyKind strategy;
  proto::MembershipPolicy policy;
  std::uint64_t seed;
};

class MidRunParityTest : public ::testing::TestWithParam<Case> {};

TEST_P(MidRunParityTest, EmptyScheduleIsBitwiseIdenticalToStaticRun) {
  const Case c = GetParam();
  dynamics::MutableOverlay overlay(c.n0, c.d, /*k=*/0, c.seed);
  util::Xoshiro256 place_rng(util::mix_seed(c.seed, 0x0B12));
  std::vector<bool> byz = graph::random_byzantine_mask(
      c.n0, sim::derive_byz_count(c.n0, 0.6), place_rng);

  // Static reference run on the identical snapshot.
  const auto snap = overlay.snapshot();
  std::vector<bool> dense_byz(c.n0, false);
  for (NodeId i = 0; i < c.n0; ++i) {
    dense_byz[i] = byz[snap.dense_to_stable[i]];
  }
  proto::ProtocolConfig cfg;
  auto cold_strategy = adv::make_strategy(c.strategy);
  const auto expect = proto::run_counting(snap.overlay, dense_byz,
                                          *cold_strategy, cfg, c.seed ^ 0xC);

  // Mid-run-capable path, empty schedule.
  dynamics::MidRunConfig mid_cfg;
  mid_cfg.policy = c.policy;
  util::Xoshiro256 churn_rng(util::mix_seed(c.seed, 0xC002));
  auto strategy = adv::make_strategy(c.strategy);
  const auto got = dynamics::run_counting_midrun(
      overlay, byz, *strategy, cfg, c.seed ^ 0xC, dynamics::ChurnSchedule{},
      mid_cfg, adv::ChurnAdversary::kNone, churn_rng);

  EXPECT_EQ(got.run.status, expect.status);
  EXPECT_EQ(got.run.estimate, expect.estimate);
  EXPECT_EQ(got.run.phases_executed, expect.phases_executed);
  EXPECT_EQ(got.run.flood_rounds, expect.flood_rounds);
  EXPECT_EQ(got.run.subphases_scheduled, expect.subphases_scheduled);
  EXPECT_EQ(got.run.subphases_executed, expect.subphases_executed);
  const auto& ia = got.run.instr;
  const auto& ib = expect.instr;
  EXPECT_EQ(ia.setup_messages, ib.setup_messages);
  EXPECT_EQ(ia.setup_bytes, ib.setup_bytes);
  EXPECT_EQ(ia.token_messages, ib.token_messages);
  EXPECT_EQ(ia.token_bytes, ib.token_bytes);
  EXPECT_EQ(ia.verify_messages, ib.verify_messages);
  EXPECT_EQ(ia.verify_bytes, ib.verify_bytes);
  EXPECT_EQ(ia.flood_rounds, ib.flood_rounds);
  EXPECT_EQ(ia.injections_attempted, ib.injections_attempted);
  EXPECT_EQ(ia.injections_accepted, ib.injections_accepted);
  EXPECT_EQ(ia.injections_caught, ib.injections_caught);
  EXPECT_EQ(ia.max_node_round_sends, ib.max_node_round_sends);
  EXPECT_EQ(ia.crashes, ib.crashes);

  // (2) the satellite property, stated as the bound the policy guarantees:
  // on a churn-free trace no estimate exceeds the static run's maximum.
  std::uint32_t static_max = 0;
  for (const auto est : expect.estimate) static_max = std::max(static_max, est);
  for (std::size_t v = 0; v < got.run.estimate.size(); ++v) {
    EXPECT_LE(got.run.estimate[v], static_max);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MidRunParityTest,
    ::testing::Values(
        Case{192, 6, adv::StrategyKind::kHonest,
             proto::MembershipPolicy::kTreatAsSilent, 7},
        Case{192, 6, adv::StrategyKind::kHonest,
             proto::MembershipPolicy::kReadmitNextPhase, 7},
        Case{256, 6, adv::StrategyKind::kFakeColor,
             proto::MembershipPolicy::kTreatAsSilent, 11},
        Case{256, 6, adv::StrategyKind::kFakeColor,
             proto::MembershipPolicy::kReadmitNextPhase, 11},
        Case{160, 8, adv::StrategyKind::kAdaptive,
             proto::MembershipPolicy::kTreatAsSilent, 23},
        Case{160, 8, adv::StrategyKind::kAdaptive,
             proto::MembershipPolicy::kReadmitNextPhase, 23},
        Case{224, 6, adv::StrategyKind::kSuppress,
             proto::MembershipPolicy::kTreatAsSilent, 31},
        Case{224, 6, adv::StrategyKind::kSuppress,
             proto::MembershipPolicy::kReadmitNextPhase, 31}));

/// Shared fixture for the with-churn policy properties.
dynamics::MidRunOutcome run_with_schedule(proto::MembershipPolicy policy,
                                          std::uint64_t seed,
                                          dynamics::ChurnSchedule* out_sched,
                                          NodeId* out_n0) {
  constexpr NodeId kN0 = 256;
  dynamics::MutableOverlay overlay(kN0, 6, 0, seed);
  util::Xoshiro256 place_rng(util::mix_seed(seed, 0x0B12));
  std::vector<bool> byz = graph::random_byzantine_mask(
      kN0, sim::derive_byz_count(kN0, 0.6), place_rng);

  dynamics::ChurnEpoch epoch;
  epoch.joins = 12;
  epoch.sybil_joins = 4;
  epoch.leaves = 12;
  proto::ProtocolConfig cfg;
  const auto horizon =
      dynamics::expected_horizon_rounds(kN0, 6, cfg.schedule);
  const auto schedule = dynamics::derive_schedule(epoch, horizon, seed);
  if (out_sched != nullptr) *out_sched = schedule;
  if (out_n0 != nullptr) *out_n0 = kN0;

  dynamics::MidRunConfig mid_cfg;
  mid_cfg.policy = policy;
  util::Xoshiro256 churn_rng(util::mix_seed(seed, 0xC002));
  auto strategy = adv::make_strategy(adv::StrategyKind::kFakeColor);
  return dynamics::run_counting_midrun(overlay, byz, *strategy, cfg,
                                       seed ^ 0xC, schedule, mid_cfg,
                                       adv::ChurnAdversary::kNone, churn_rng);
}

TEST(MidRunPolicyTest, TreatAsSilentJoinersAreNeverAdmitted) {
  for (const std::uint64_t seed : {3u, 17u, 29u}) {
    dynamics::ChurnSchedule sched;
    NodeId n0 = 0;
    const auto out = run_with_schedule(
        proto::MembershipPolicy::kTreatAsSilent, seed, &sched, &n0);
    EXPECT_EQ(out.stats.admitted, 0u);
    EXPECT_EQ(out.stats.verifier_refreshes, 0u);
    // Honest joiners finish the run without an estimate: silent means
    // silent. (Departed-again joiners are kDeparted.)
    for (NodeId v = n0; v < out.run.status.size(); ++v) {
      if (out.run_byz[v]) continue;
      EXPECT_TRUE(out.run.status[v] == proto::NodeStatus::kUndecided ||
                  out.run.status[v] == proto::NodeStatus::kDeparted)
          << "silent joiner " << v << " got status "
          << static_cast<int>(out.run.status[v]);
      EXPECT_EQ(out.run.estimate[v], 0u);
    }
    EXPECT_EQ(out.stats.joins, sched.joins() + sched.sybil_joins());
  }
}

// --- (4) E26: engine↔fastpath bitwise equivalence at NONZERO churn. ---

struct TierCase {
  NodeId n0;
  double rate;  ///< events per run as a fraction of n0 (split 1/2 J, 1/8 S)
  adv::StrategyKind strategy;
  proto::MembershipPolicy policy;
  adv::MidRunScheduleStrategy schedule;
  std::uint64_t seed;
};

class MidRunTierEquivalenceTest : public ::testing::TestWithParam<TierCase> {};

dynamics::MidRunTierComparison compare_tiers(const TierCase& c) {
  dynamics::MutableOverlay overlay(c.n0, 6, 0, c.seed);
  util::Xoshiro256 place_rng(util::mix_seed(c.seed, 0x0B12));
  const std::vector<bool> byz = graph::random_byzantine_mask(
      c.n0, sim::derive_byz_count(c.n0, 0.6), place_rng);

  const auto events = static_cast<std::uint32_t>(c.rate * c.n0);
  dynamics::ChurnEpoch epoch;
  epoch.joins = events / 2;
  epoch.sybil_joins = events / 8;
  epoch.leaves = events - epoch.joins - epoch.sybil_joins;

  proto::ProtocolConfig cfg;
  const auto horizon =
      dynamics::expected_horizon_rounds(c.n0, 6, cfg.schedule);
  const auto schedule = adv::derive_adversarial_schedule(
      epoch, horizon, c.seed, c.schedule, 6, cfg.schedule);
  EXPECT_FALSE(schedule.empty()) << "case exercises zero events";

  dynamics::MidRunConfig mid_cfg;
  mid_cfg.policy = c.policy;
  mid_cfg.schedule_strategy = c.schedule;
  util::Xoshiro256 churn_rng(util::mix_seed(c.seed, 0xC002));
  return dynamics::compare_midrun_tiers(overlay, byz, c.strategy, cfg,
                                        c.seed ^ 0xC, schedule, mid_cfg,
                                        adv::ChurnAdversary::kNone, churn_rng);
}

TEST_P(MidRunTierEquivalenceTest, EngineMatchesFastpathBitwiseUnderChurn) {
  const auto cmp = compare_tiers(GetParam());
  // Spell out the load-bearing components before the blanket identity so a
  // failure names what diverged.
  EXPECT_EQ(cmp.fastpath.run.status, cmp.engine.run.status);
  EXPECT_EQ(cmp.fastpath.run.estimate, cmp.engine.run.estimate);
  EXPECT_EQ(cmp.fastpath.run.phases_executed, cmp.engine.run.phases_executed);
  EXPECT_EQ(cmp.fastpath.run.flood_rounds, cmp.engine.run.flood_rounds);
  EXPECT_EQ(cmp.fastpath.run.instr.token_messages,
            cmp.engine.run.instr.token_messages);
  EXPECT_EQ(cmp.fastpath.run.instr.verify_messages,
            cmp.engine.run.instr.verify_messages);
  EXPECT_EQ(cmp.fastpath.stats.events_applied, cmp.engine.stats.events_applied);
  EXPECT_EQ(cmp.fastpath.stats.admitted, cmp.engine.stats.admitted);
  EXPECT_EQ(cmp.fastpath.stats.frontier_leaves,
            cmp.engine.stats.frontier_leaves);
  EXPECT_TRUE(cmp.identical);
  // The digest trails match too, so a divergence the outcomes hide fails.
  EXPECT_TRUE(cmp.verdict.passed) << cmp.verdict.forensics;
  // Real churn actually struck mid-run (the case would otherwise collapse
  // into E24's empty-schedule anchor).
  EXPECT_GT(cmp.fastpath.stats.events_applied, 0u);
}

TEST(MidRunTierEquivalenceTest, ComparisonIsDeterministic) {
  const TierCase c{224, 0.06, adv::StrategyKind::kFakeColor,
                   proto::MembershipPolicy::kReadmitNextPhase,
                   adv::MidRunScheduleStrategy::kFrontierLeaves, 5};
  const auto a = compare_tiers(c);
  const auto b = compare_tiers(c);
  EXPECT_TRUE(a.fastpath.run == b.fastpath.run);
  EXPECT_TRUE(a.engine.run == b.engine.run);
  EXPECT_TRUE(a.fastpath.stats == b.fastpath.stats);
  EXPECT_EQ(a.fastpath.run_to_stable, b.fastpath.run_to_stable);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MidRunTierEquivalenceTest,
    ::testing::Values(
        TierCase{192, 0.05, adv::StrategyKind::kHonest,
                 proto::MembershipPolicy::kTreatAsSilent,
                 adv::MidRunScheduleStrategy::kUniform, 7},
        TierCase{192, 0.05, adv::StrategyKind::kHonest,
                 proto::MembershipPolicy::kReadmitNextPhase,
                 adv::MidRunScheduleStrategy::kUniform, 7},
        TierCase{256, 0.08, adv::StrategyKind::kFakeColor,
                 proto::MembershipPolicy::kReadmitNextPhase,
                 adv::MidRunScheduleStrategy::kFrontierLeaves, 11},
        TierCase{256, 0.08, adv::StrategyKind::kFakeColor,
                 proto::MembershipPolicy::kTreatAsSilent,
                 adv::MidRunScheduleStrategy::kFrontierLeaves, 11},
        TierCase{224, 0.06, adv::StrategyKind::kAdaptive,
                 proto::MembershipPolicy::kReadmitNextPhase,
                 adv::MidRunScheduleStrategy::kBoundaryJoinStorm, 23},
        TierCase{224, 0.06, adv::StrategyKind::kSuppress,
                 proto::MembershipPolicy::kReadmitNextPhase,
                 adv::MidRunScheduleStrategy::kBoundaryJoinStorm, 31},
        TierCase{160, 0.12, adv::StrategyKind::kAdaptive,
                 proto::MembershipPolicy::kTreatAsSilent,
                 adv::MidRunScheduleStrategy::kUniform, 43},
        TierCase{160, 0.12, adv::StrategyKind::kFakeColor,
                 proto::MembershipPolicy::kReadmitNextPhase,
                 adv::MidRunScheduleStrategy::kUniform, 43}));

TEST(MidRunPolicyTest, ReadmitNextPhaseAdmitsAndRefreshes) {
  bool any_admitted = false;
  for (const std::uint64_t seed : {3u, 17u, 29u}) {
    const auto out = run_with_schedule(
        proto::MembershipPolicy::kReadmitNextPhase, seed, nullptr, nullptr);
    any_admitted = any_admitted || out.stats.admitted > 0;
    if (out.stats.events_applied > 0) {
      EXPECT_GT(out.stats.verifier_refreshes, 0u)
          << "live events applied but the verifier was never rebuilt";
    }
  }
  EXPECT_TRUE(any_admitted) << "no joiner was ever admitted mid-run";
}

}  // namespace
}  // namespace byz
