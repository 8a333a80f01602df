// The epoch driver: replay consistency with the trace, staleness
// bookkeeping, the churn adversaries, and bitwise determinism of whole
// churn runs under the shared trial scheduler for any worker count.
#include "dynamics/epoch_driver.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "bench_core/scheduler.hpp"

namespace byz::dynamics {
namespace {

ChurnRunConfig small_config() {
  ChurnRunConfig cfg;
  cfg.trace.n0 = 128;
  cfg.trace.epochs = 4;
  cfg.trace.arrival_rate = 4.0;
  cfg.trace.departure_rate = 4.0;
  cfg.trace.min_n = 64;
  cfg.trace.seed = 17;
  cfg.d = 6;
  cfg.delta = 0.7;
  cfg.seed = 17;
  return cfg;
}

bool same_epoch(const EpochStats& a, const EpochStats& b) {
  return a.n_true == b.n_true && a.byz_alive == b.byz_alive &&
         a.joins == b.joins && a.leaves == b.leaves &&
         a.fresh.decided == b.fresh.decided &&
         a.fresh.in_band == b.fresh.in_band &&
         a.fresh.mean_ratio == b.fresh.mean_ratio &&
         a.stale_nodes == b.stale_nodes &&
         a.stale_in_band == b.stale_in_band && a.messages == b.messages;
}

TEST(EpochDriver, ReplayTracksTheTrace) {
  const auto cfg = small_config();
  const auto result = run_churn(cfg);
  ASSERT_EQ(result.epochs.size(), cfg.trace.epochs);
  ASSERT_EQ(result.trace.epochs.size(), cfg.trace.epochs);
  for (std::uint32_t e = 0; e < cfg.trace.epochs; ++e) {
    const auto& stats = result.epochs[e];
    const auto& epoch = result.trace.epochs[e];
    EXPECT_EQ(stats.n_true, epoch.n_after);
    EXPECT_EQ(stats.joins, epoch.joins + epoch.sybil_joins);
    EXPECT_EQ(stats.leaves, epoch.leaves);
    EXPECT_GT(stats.fresh.honest, 0u);
    EXPECT_GT(stats.messages, 0u);
  }
  // Epoch 0 has no carried-over estimates; later epochs do (survivors of
  // a 128-node overlay with ~4 departures/epoch).
  EXPECT_EQ(result.epochs[0].stale_nodes, 0u);
  EXPECT_GT(result.epochs[1].stale_nodes, 0u);
}

TEST(EpochDriver, DeterministicAcrossSchedulerWorkerCounts) {
  const auto base = small_config();
  constexpr std::uint32_t kTrials = 4;

  std::vector<std::vector<EpochStats>> per_jobs;
  for (const unsigned jobs : {1u, 4u}) {
    const bench_core::TrialScheduler scheduler(jobs);
    const auto runs = scheduler.map(kTrials, [&](std::uint64_t t) {
      auto cfg = base;
      cfg.trace.seed = bench_core::TrialScheduler::trial_seed(base.seed, t);
      cfg.seed = cfg.trace.seed;
      return run_churn(cfg);
    });
    std::vector<EpochStats> flat;
    for (const auto& run : runs) {
      flat.insert(flat.end(), run.epochs.begin(), run.epochs.end());
    }
    per_jobs.push_back(std::move(flat));
  }
  ASSERT_EQ(per_jobs[0].size(), per_jobs[1].size());
  for (std::size_t i = 0; i < per_jobs[0].size(); ++i) {
    EXPECT_TRUE(same_epoch(per_jobs[0][i], per_jobs[1][i])) << "index " << i;
  }
}

TEST(EpochDriver, SybilBurstRaisesTheByzantineBudget) {
  auto cfg = small_config();
  cfg.trace.epochs = 5;
  cfg.trace.model = ChurnModel::kSybilJoin;
  cfg.trace.burst_epoch = 2;
  cfg.trace.burst_fraction = 0.25;
  cfg.churn_adversary = adv::ChurnAdversary::kSybilBurst;
  const auto result = run_churn(cfg);
  EXPECT_GT(result.epochs[2].byz_alive, result.epochs[1].byz_alive + 10);
}

TEST(EpochDriver, EclipseAndTargetedAdversariesRun) {
  for (const auto adversary : {adv::ChurnAdversary::kEclipse,
                               adv::ChurnAdversary::kTargetedDeparture}) {
    auto cfg = small_config();
    cfg.trace.model = adversary == adv::ChurnAdversary::kEclipse
                          ? ChurnModel::kSybilJoin
                          : ChurnModel::kBurst;
    cfg.trace.burst_epoch = 1;
    cfg.trace.burst_fraction = 0.2;
    cfg.churn_adversary = adversary;
    const auto result = run_churn(cfg);
    ASSERT_EQ(result.epochs.size(), cfg.trace.epochs);
    for (const auto& epoch : result.epochs) {
      EXPECT_GT(epoch.fresh.honest, 0u);
    }
  }
}

TEST(EpochDriver, RecoveryEpochsHelper) {
  ChurnRunResult result;
  const auto with_band = [](double frac) {
    EpochStats stats;
    stats.fresh.frac_in_band = frac;
    return stats;
  };
  result.epochs = {with_band(1.0), with_band(0.4), with_band(0.6),
                   with_band(0.95), with_band(1.0)};
  EXPECT_EQ(recovery_epochs(result, 1, 0.9), 2);
  EXPECT_EQ(recovery_epochs(result, 3, 0.9), 0);
  EXPECT_EQ(recovery_epochs(result, 1, 1.1), -1);
  EXPECT_EQ(recovery_epochs(result, 9, 0.5), -1);  // past the trace
}

TEST(EpochDriver, RecoveryAtTheFinalEpochRequiresTheThresholdToBeMet) {
  // Regression: a burst at the FINAL epoch must not read as recovered just
  // because the trace ran out of epochs — -1 unless the band is actually
  // re-entered, and 0 only when the final epoch itself clears it.
  ChurnRunResult result;
  const auto with_band = [](double frac) {
    EpochStats stats;
    stats.fresh.frac_in_band = frac;
    return stats;
  };
  result.epochs = {with_band(1.0), with_band(1.0), with_band(0.4)};
  EXPECT_EQ(recovery_epochs(result, 2, 0.9), -1);  // band never re-entered
  result.epochs.back().fresh.frac_in_band = 0.95;
  EXPECT_EQ(recovery_epochs(result, 2, 0.9), 0);  // genuinely met at burst
  // Empty trace: nothing can have recovered.
  ChurnRunResult empty;
  EXPECT_EQ(recovery_epochs(empty, 0, 0.9), -1);
}

TEST(EpochDriver, AdaptiveSchedulerSkipsBelowTheDriftBound) {
  auto cfg = small_config();
  cfg.trace.epochs = 8;
  // ~4 joins + ~4 leaves per epoch on ~128 nodes is ~6% drift: a 10%
  // threshold re-estimates roughly every second epoch.
  cfg.drift_threshold = 0.10;
  const auto result = run_churn(cfg);

  std::uint32_t estimated = 0;
  EXPECT_TRUE(result.epochs.front().estimated);  // epoch 0 bootstraps
  double last_drift = 0.0;
  for (const auto& epoch : result.epochs) {
    if (epoch.estimated) {
      ++estimated;
      EXPECT_GT(epoch.messages, 0u);
    } else {
      // Skipped epochs run no protocol but keep judging stale estimates.
      EXPECT_EQ(epoch.messages, 0u);
      EXPECT_EQ(epoch.fresh.honest, 0u);
      EXPECT_GT(epoch.stale_nodes, 0u);
      EXPECT_LT(epoch.drift, cfg.drift_threshold);
      EXPECT_GT(epoch.drift, last_drift);  // drift accumulates while idle
    }
    last_drift = epoch.estimated ? 0.0 : epoch.drift;
  }
  EXPECT_LT(estimated, result.epochs.size());  // some epochs skipped
  EXPECT_GE(estimated, 2u);                    // but not all
}

TEST(EpochDriver, OnlyTheEngineOracleDigests) {
  auto cfg = small_config();
  for (const auto& epoch : run_churn(cfg).epochs) {
    EXPECT_EQ(epoch.run_digest, 0u);
  }
  cfg.run_engine = true;
  for (const auto& epoch : run_churn(cfg).epochs) {
    EXPECT_TRUE(epoch.engine_match);
    EXPECT_NE(epoch.run_digest, 0u);
    EXPECT_TRUE(epoch.forensics_path.empty());
  }
}

}  // namespace
}  // namespace byz::dynamics
