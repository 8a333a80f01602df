// The warm tier's contract: run_counting_warm is DECISION-identical to the
// cold run on every input — lazy subphase evaluation changes only message
// accounting — and the drift bound downgrades it to a cold run rather than
// ever trusting stale state.
#include "protocols/warm_start.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "graph/categories.hpp"

namespace byz::proto {
namespace {

using graph::NodeId;

struct Fixture {
  graph::Overlay overlay;
  std::vector<bool> byz;
  std::vector<NodeId> identity;  // dense == stable on a static overlay

  explicit Fixture(NodeId n, std::uint64_t seed) {
    graph::OverlayParams params;
    params.n = n;
    params.d = 6;
    params.seed = seed;
    overlay = graph::Overlay::build(params);
    util::Xoshiro256 rng(seed ^ 0xB12);
    byz = graph::random_byzantine_mask(n, n / 64, rng);
    identity.resize(n);
    std::iota(identity.begin(), identity.end(), NodeId{0});
  }
};

TEST(WarmStart, ColdBootstrapThenWarmRerunMatchesDecisionsExactly) {
  Fixture f(512, 21);
  ProtocolConfig cfg;
  WarmState state;
  const std::uint64_t color_seed = 77;

  auto s1 = adv::make_strategy(adv::StrategyKind::kFakeColor);
  const auto boot = run_counting_warm(f.overlay, f.byz, *s1, cfg, color_seed,
                                      f.identity, 0.0, {}, state);
  EXPECT_FALSE(boot.warm_used);  // nothing to seed from
  EXPECT_TRUE(state.has_run);

  // Second run on the same snapshot with a different color seed: warm
  // path, decisions must equal the cold reference exactly.
  const std::uint64_t color_seed2 = 78;
  auto s2 = adv::make_strategy(adv::StrategyKind::kFakeColor);
  const auto warm = run_counting_warm(f.overlay, f.byz, *s2, cfg, color_seed2,
                                      f.identity, 0.001, {}, state);
  EXPECT_TRUE(warm.warm_used);
  EXPECT_GT(warm.estimates_seeded, 0u);
  EXPECT_GE(warm.seed_min, 1u);
  EXPECT_LE(warm.seed_min, warm.seed_max);

  auto s3 = adv::make_strategy(adv::StrategyKind::kFakeColor);
  const auto cold = run_counting(f.overlay, f.byz, *s3, cfg, color_seed2);
  EXPECT_EQ(warm.run.status, cold.status);
  EXPECT_EQ(warm.run.estimate, cold.estimate);
  EXPECT_EQ(warm.run.phases_executed, cold.phases_executed);
  // The lazy tier never floods MORE than the schedule.
  EXPECT_LE(warm.run.subphases_executed, warm.run.subphases_scheduled);
  EXPECT_LE(warm.run.instr.total_messages(), cold.instr.total_messages());
}

TEST(WarmStart, DriftBeyondTheBoundFallsBackCold) {
  Fixture f(256, 9);
  ProtocolConfig cfg;
  WarmState state;
  auto s1 = adv::make_strategy(adv::StrategyKind::kHonest);
  (void)run_counting_warm(f.overlay, f.byz, *s1, cfg, 1, f.identity, 0.0, {},
                          state);
  WarmConfig warm_cfg;
  warm_cfg.max_drift = 0.05;
  auto s2 = adv::make_strategy(adv::StrategyKind::kHonest);
  const auto run = run_counting_warm(f.overlay, f.byz, *s2, cfg, 2,
                                     f.identity, 0.2, warm_cfg, state);
  EXPECT_FALSE(run.warm_used);
  EXPECT_EQ(run.run.subphases_executed, run.run.subphases_scheduled);
}

TEST(WarmStart, RefinementRerunsOnlyWhereTheEstimateMoved) {
  Fixture f(256, 31);
  ProtocolConfig cfg;
  WarmState state;
  auto s1 = adv::make_strategy(adv::StrategyKind::kHonest);
  const auto boot = run_counting_warm(f.overlay, f.byz, *s1, cfg, 11,
                                      f.identity, 0.0, {}, state);
  EXPECT_GT(boot.refine_recomputed, 0u);
  EXPECT_EQ(boot.refine_reused, 0u);
  // Identical snapshot AND color seed: every decided phase repeats, so the
  // calibration is pure cache hits.
  auto s2 = adv::make_strategy(adv::StrategyKind::kHonest);
  const auto rerun = run_counting_warm(f.overlay, f.byz, *s2, cfg, 11,
                                       f.identity, 0.0, {}, state);
  EXPECT_EQ(rerun.refine_recomputed, 0u);
  EXPECT_EQ(rerun.refine_reused, boot.refine_recomputed);
}

TEST(EpsWarm, NeverEngagesOnColdOrBootstrapRuns) {
  Fixture f(256, 9);
  ProtocolConfig cfg;
  WarmState state;
  WarmConfig warm;
  warm.eps_phase_skip = true;
  warm.eps_margin = 0;
  auto s = adv::make_strategy(adv::StrategyKind::kFakeColor);
  const auto boot = run_counting_warm(f.overlay, f.byz, *s, cfg, 5,
                                      f.identity, 0.0, warm, state);
  EXPECT_FALSE(boot.warm_used);
  EXPECT_FALSE(boot.eps_used);  // first-ever run: nothing seeded to skip to
  EXPECT_EQ(boot.eps_entry_phase, 1u);

  // Excess drift forces the cold fallback; the skip must not survive it.
  auto s2 = adv::make_strategy(adv::StrategyKind::kFakeColor);
  const auto cold = run_counting_warm(f.overlay, f.byz, *s2, cfg, 6,
                                      f.identity, 0.9, warm, state);
  EXPECT_FALSE(cold.warm_used);
  EXPECT_FALSE(cold.eps_used);
}

TEST(EpsWarm, QuantileEntrySkipsPhasesWithinTheBudget) {
  Fixture f(1024, 33);
  ProtocolConfig cfg;
  WarmState state;
  const std::uint64_t seed1 = 101, seed2 = 202;

  auto s1 = adv::make_strategy(adv::StrategyKind::kFakeColor);
  WarmConfig warm;
  (void)run_counting_warm(f.overlay, f.byz, *s1, cfg, seed1, f.identity, 0.0,
                          warm, state);

  warm.eps_phase_skip = true;
  warm.eps_budget = 0.10;
  warm.eps_margin = 0;
  auto s2 = adv::make_strategy(adv::StrategyKind::kFakeColor);
  const auto eps = run_counting_warm(f.overlay, f.byz, *s2, cfg, seed2,
                                     f.identity, 0.0, warm, state);
  ASSERT_TRUE(eps.warm_used);
  ASSERT_TRUE(eps.eps_used) << "seeded estimates deep enough, skip expected";
  EXPECT_GT(eps.eps_entry_phase, 1u);
  EXPECT_GT(eps.eps_skipped_subphases, 0u);
  EXPECT_GT(eps.eps_budget_nodes, 0u);

  // Every decision respects the entry clamp by construction.
  for (std::size_t v = 0; v < eps.run.status.size(); ++v) {
    if (eps.run.status[v] == NodeStatus::kDecided) {
      EXPECT_GE(eps.run.estimate[v], eps.eps_entry_phase);
    }
  }

  // The accounting invariant against the cold shadow on the same colors:
  // divergent decisions fit in floor(eps_budget * honest).
  auto s3 = adv::make_strategy(adv::StrategyKind::kFakeColor);
  const auto cold = run_counting(f.overlay, f.byz, *s3, cfg, seed2);
  std::uint64_t divergent = 0;
  for (std::size_t v = 0; v < cold.status.size(); ++v) {
    if (cold.status[v] != eps.run.status[v] ||
        cold.estimate[v] != eps.run.estimate[v]) {
      ++divergent;
    }
  }
  // Zero is legitimate (the entry phase can sit exactly at the cold
  // minimum); the invariant is the upper bound.
  EXPECT_LE(divergent, eps.eps_budget_nodes);
}

TEST(WarmStart, RejectsMismatchedInputs) {
  Fixture f(64, 1);
  ProtocolConfig cfg;
  WarmState state;
  auto s = adv::make_strategy(adv::StrategyKind::kHonest);
  std::vector<NodeId> short_map(63);
  EXPECT_THROW((void)run_counting_warm(f.overlay, f.byz, *s, cfg, 1,
                                       short_map, 0.0, {}, state),
               std::invalid_argument);
}

}  // namespace
}  // namespace byz::proto
