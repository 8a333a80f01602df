#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "analysis/experiment.hpp"
#include "analysis/report.hpp"
#include "protocols/estimate.hpp"
#include "util/table.hpp"

namespace byz::analysis {
namespace {

class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    had_ = old != nullptr;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~EnvGuard() {
    if (had_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::string saved_;
  bool had_ = false;
};

TEST(Experiment, Pow2Sizes) {
  const auto sizes = pow2_sizes(10, 12);
  ASSERT_EQ(sizes.size(), 3u);
  EXPECT_EQ(sizes[0], 1024u);
  EXPECT_EQ(sizes[2], 4096u);
}

TEST(Experiment, EnvMaxExp) {
  {
    EnvGuard guard("BYZCOUNT_MAX_EXP", nullptr);
    EXPECT_EQ(env_max_exp(14), 14u);
  }
  {
    EnvGuard guard("BYZCOUNT_MAX_EXP", "12");
    EXPECT_EQ(env_max_exp(14), 12u);
  }
  {
    EnvGuard guard("BYZCOUNT_MAX_EXP", "2");  // below the floor of 4
    EXPECT_EQ(env_max_exp(14), 14u);
  }
}

TEST(Experiment, AccuracyAggregateFolds) {
  proto::Accuracy a;
  a.honest = 100;
  a.decided = 90;
  a.crashed = 10;
  a.frac_in_band = 0.9;
  a.mean_ratio = 0.5;
  a.min_ratio = 0.3;
  a.max_ratio = 0.7;
  proto::Accuracy b = a;
  b.frac_in_band = 0.7;
  AccuracyAggregate agg;
  agg.add(a);
  agg.add(b);
  EXPECT_EQ(agg.frac_in_band.count(), 2u);
  EXPECT_NEAR(agg.frac_in_band.mean(), 0.8, 1e-12);
  EXPECT_NEAR(agg.crashed_frac.mean(), 0.1, 1e-12);
  EXPECT_NEAR(agg.decided_frac.mean(), 0.9, 1e-12);
}

TEST(Experiment, AggregateSkipsRatioWhenNoDeciders) {
  proto::Accuracy none;
  none.honest = 10;
  none.decided = 0;
  AccuracyAggregate agg;
  agg.add(none);
  EXPECT_EQ(agg.mean_ratio.count(), 0u);
  EXPECT_EQ(agg.crashed_frac.count(), 1u);
}

TEST(SweepTrials, IndependentSeedsDiffer) {
  sim::TrialConfig cfg;
  cfg.overlay.n = 200;
  cfg.overlay.d = 6;
  cfg.byz_count = 0;
  cfg.seed = 11;
  const auto sweep = sweep_trials(cfg, 4, bench_core::TrialScheduler(1));
  ASSERT_EQ(sweep.results.size(), 4u);
  // At least two trials should differ somewhere (different overlays).
  bool any_diff = false;
  for (std::size_t t = 1; t < sweep.results.size() && !any_diff; ++t) {
    any_diff = sweep.results[t].run.estimate != sweep.results[0].run.estimate;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Report, CaptureAppendsMarkdown) {
  const std::string path = ::testing::TempDir() + "/byz_capture_test.md";
  std::remove(path.c_str());
  {
    EnvGuard guard("BYZCOUNT_CAPTURE", path.c_str());
    util::Table t("captured");
    t.columns({"a"});
    t.row().cell("1");
    emit(t);
    emit_line("headline");
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string captured = ss.str();
  EXPECT_NE(captured.find("### captured"), std::string::npos);
  EXPECT_NE(captured.find("headline"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Report, NoCaptureWithoutEnv) {
  EnvGuard guard("BYZCOUNT_CAPTURE", nullptr);
  util::Table t("uncaptured");
  t.columns({"a"});
  t.row().cell("1");
  EXPECT_NO_THROW(emit(t));
}

}  // namespace
}  // namespace byz::analysis
