#include "bench_core/scheduler.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "analysis/experiment.hpp"
#include "sim/runner.hpp"

namespace byz::bench_core {
namespace {

TEST(TrialScheduler, RunsEveryIndexExactlyOnce) {
  for (const unsigned jobs : {1u, 2u, 7u}) {
    const TrialScheduler sched(jobs);
    std::vector<std::atomic<int>> hits(100);
    sched.for_each(hits.size(), [&](std::uint64_t i) { hits[i]++; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(TrialScheduler, ZeroJobsMeansHardware) {
  const TrialScheduler sched(0);
  EXPECT_GE(sched.jobs(), 1u);
}

TEST(TrialScheduler, CheckedJobsAcceptsOnlyZeroToHardware) {
  const std::int64_t hw = TrialScheduler(0).jobs();
  EXPECT_EQ(TrialScheduler::checked_jobs(0), 0u);
  EXPECT_EQ(TrialScheduler::checked_jobs(hw), static_cast<unsigned>(hw));
  for (const std::int64_t bad : {std::int64_t{-1}, hw + 1,
                                 std::int64_t{4294967295},
                                 std::int64_t{5000000000}}) {
    EXPECT_THROW((void)TrialScheduler::checked_jobs(bad),
                 std::invalid_argument)
        << bad;
  }
}

TEST(TrialScheduler, EmptyCountIsNoop) {
  const TrialScheduler sched(4);
  bool ran = false;
  sched.for_each(0, [&](std::uint64_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(TrialScheduler, MapOrdersResultsByIndex) {
  const TrialScheduler sched(4);
  const auto out = sched.map(64, [](std::uint64_t i) { return i * i; });
  for (std::uint64_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(TrialScheduler, PropagatesExceptions) {
  const TrialScheduler sched(3);
  EXPECT_THROW(
      sched.for_each(32,
                     [](std::uint64_t i) {
                       if (i == 11) throw std::runtime_error("boom");
                     }),
      std::runtime_error);
}

TEST(TrialScheduler, TrialSeedMatchesSimRunner) {
  // The scheduler's seed split is the series convention every sweep of
  // sim::run_trial shares: trial t of a series rooted at base runs with
  // mix_seed(base, t + 1).
  EXPECT_EQ(TrialScheduler::trial_seed(123, 0), util::mix_seed(123, 1));
  EXPECT_EQ(TrialScheduler::trial_seed(123, 7), util::mix_seed(123, 8));
}

TEST(TrialScheduler, DeterministicAcrossJobCounts) {
  // Same seeds => bitwise identical per-trial results at 1 and N workers.
  sim::TrialConfig cfg;
  cfg.overlay.n = 512;
  cfg.overlay.d = 6;
  cfg.delta = 0.7;
  cfg.strategy = adv::StrategyKind::kFakeColor;
  cfg.seed = 42;
  const std::uint32_t trials = 8;

  const auto sweep1 = analysis::sweep_trials(cfg, trials, TrialScheduler(1));
  const auto sweep8 = analysis::sweep_trials(cfg, trials, TrialScheduler(8));

  ASSERT_EQ(sweep1.results.size(), sweep8.results.size());
  for (std::size_t t = 0; t < trials; ++t) {
    const auto& a = sweep1.results[t];
    const auto& b = sweep8.results[t];
    EXPECT_EQ(a.run.estimate, b.run.estimate) << "trial " << t;
    EXPECT_EQ(a.run.flood_rounds, b.run.flood_rounds) << "trial " << t;
    EXPECT_EQ(a.run.instr.total_messages(), b.run.instr.total_messages())
        << "trial " << t;
    EXPECT_EQ(a.accuracy.frac_in_band, b.accuracy.frac_in_band) << "trial " << t;
  }
  EXPECT_EQ(sweep1.aggregate.frac_in_band.mean(),
            sweep8.aggregate.frac_in_band.mean());
}

TEST(TrialScheduler, SweepMatchesSerialTrialLoop) {
  // sweep_trials on two workers must reproduce a serial loop of run_trial
  // at trial_seed(cfg.seed, t), trial for trial.
  sim::TrialConfig cfg;
  cfg.overlay.n = 256;
  cfg.overlay.d = 6;
  cfg.delta = 0.7;
  cfg.seed = 7;
  const std::uint32_t trials = 4;

  const auto sweep = analysis::sweep_trials(cfg, trials, TrialScheduler(2));
  ASSERT_EQ(sweep.results.size(), trials);
  for (std::uint32_t t = 0; t < trials; ++t) {
    sim::TrialConfig trial_cfg = cfg;
    trial_cfg.seed = TrialScheduler::trial_seed(cfg.seed, t);
    const sim::TrialResult serial = sim::run_trial(trial_cfg);
    EXPECT_EQ(sweep.results[t].run.estimate, serial.run.estimate) << t;
    EXPECT_EQ(sweep.results[t].byz_count, serial.byz_count) << t;
  }
}

}  // namespace
}  // namespace byz::bench_core
