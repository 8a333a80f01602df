// Extension of the engine↔fastpath equivalence suite to the dynamic world:
// on EVERY epoch snapshot of a churn trace, the message-level Engine and
// the array fast path must produce identical per-node decisions and
// identical message accounting (run_churn compares the whole RunResult,
// every instrumentation counter included, when run_engine is set). This
// pins down that churn only changes WHICH overlay the protocol runs on,
// never how the two tiers execute it.
#include <gtest/gtest.h>

#include <string>

#include "dynamics/epoch_driver.hpp"

namespace byz {
namespace {

struct Case {
  dynamics::ChurnModel model;
  adv::StrategyKind strategy;
  adv::ChurnAdversary adversary;
  std::uint64_t seed;
};

class ChurnEquivalenceTest : public ::testing::TestWithParam<Case> {};

TEST_P(ChurnEquivalenceTest, EngineMatchesFastPathOnEverySnapshot) {
  const Case& c = GetParam();
  dynamics::ChurnRunConfig cfg;
  cfg.trace.n0 = 160;
  cfg.trace.epochs = 3;
  cfg.trace.arrival_rate = 6.0;
  cfg.trace.departure_rate = 6.0;
  cfg.trace.model = c.model;
  cfg.trace.burst_epoch = 1;
  cfg.trace.burst_fraction = 0.2;
  cfg.trace.min_n = 64;
  cfg.trace.seed = c.seed;
  cfg.d = 6;
  cfg.delta = 0.7;
  cfg.strategy = c.strategy;
  cfg.churn_adversary = c.adversary;
  cfg.seed = c.seed;
  cfg.run_engine = true;

  const auto result = dynamics::run_churn(cfg);
  ASSERT_EQ(result.epochs.size(), cfg.trace.epochs);
  for (std::uint32_t e = 0; e < result.epochs.size(); ++e) {
    EXPECT_TRUE(result.epochs[e].engine_match)
        << "engine/fastpath divergence at epoch " << e;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ChurnModels, ChurnEquivalenceTest,
    ::testing::Values(
        Case{dynamics::ChurnModel::kSteady, adv::StrategyKind::kHonest,
             adv::ChurnAdversary::kNone, 1},
        Case{dynamics::ChurnModel::kSteady, adv::StrategyKind::kFakeColor,
             adv::ChurnAdversary::kNone, 2},
        Case{dynamics::ChurnModel::kBurst, adv::StrategyKind::kAdaptive,
             adv::ChurnAdversary::kTargetedDeparture, 3},
        Case{dynamics::ChurnModel::kSybilJoin, adv::StrategyKind::kFakeColor,
             adv::ChurnAdversary::kSybilBurst, 4},
        Case{dynamics::ChurnModel::kSybilJoin,
             adv::StrategyKind::kCrashMaximizer, adv::ChurnAdversary::kEclipse,
             5}),
    [](const ::testing::TestParamInfo<Case>& info) {
      const Case& c = info.param;
      std::string name = std::string(dynamics::to_string(c.model)) + "_" +
                         adv::to_string(c.strategy) + "_" +
                         adv::to_string(c.adversary) + "_s" +
                         std::to_string(c.seed);
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

}  // namespace
}  // namespace byz
