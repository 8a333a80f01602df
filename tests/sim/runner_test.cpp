#include "sim/runner.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace byz::sim {
namespace {

TEST(DeriveByzCount, MatchesPower) {
  EXPECT_EQ(derive_byz_count(1024, 0.5), 32u);
  EXPECT_EQ(derive_byz_count(1024, 1.0), 1u);
  EXPECT_EQ(derive_byz_count(65536, 0.5), 256u);
}

TEST(DeriveByzCount, CappedAtQuarter) {
  // δ → 0 would make everyone Byzantine; the cap keeps runs meaningful.
  EXPECT_LE(derive_byz_count(100, 0.01), 25u);
}

TEST(DeriveByzCount, RejectsDeltaOutsideUnitInterval) {
  // NaN would reach an undefined NaN -> NodeId cast, and -3 would silently
  // place the n/4 cap.
  for (const double delta : {std::nan(""), -3.0, 1.5}) {
    EXPECT_THROW((void)derive_byz_count(512, delta), std::invalid_argument)
        << delta;
  }
}

TEST(RunTrial, CleanTrialAllDecide) {
  TrialConfig cfg;
  cfg.overlay.n = 256;
  cfg.overlay.d = 6;
  cfg.byz_count = 0;
  cfg.seed = 5;
  const TrialResult r = run_trial(cfg);
  EXPECT_EQ(r.byz_count, 0u);
  EXPECT_EQ(r.accuracy.honest, 256u);
  EXPECT_EQ(r.accuracy.decided, 256u);
  EXPECT_EQ(r.accuracy.crashed, 0u);
  EXPECT_GT(r.accuracy.mean_ratio, 0.0);
}

TEST(RunTrial, DeterministicGivenSeed) {
  TrialConfig cfg;
  cfg.overlay.n = 200;
  cfg.overlay.d = 6;
  cfg.delta = 0.5;
  cfg.strategy = adv::StrategyKind::kFakeColor;
  cfg.seed = 9;
  const TrialResult a = run_trial(cfg);
  const TrialResult b = run_trial(cfg);
  EXPECT_EQ(a.run.estimate, b.run.estimate);
  EXPECT_EQ(a.accuracy.decided, b.accuracy.decided);
}

TEST(RunTrial, ByzCountDerivedFromDelta) {
  TrialConfig cfg;
  cfg.overlay.n = 1024;
  cfg.overlay.d = 6;
  cfg.delta = 0.5;
  cfg.seed = 3;
  const TrialResult r = run_trial(cfg);
  EXPECT_EQ(r.byz_count, 32u);
}

}  // namespace
}  // namespace byz::sim
