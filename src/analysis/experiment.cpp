#include "analysis/experiment.hpp"

#include <algorithm>
#include <cstdlib>
#include <string>

namespace byz::analysis {

std::vector<std::uint32_t> pow2_sizes(std::uint32_t lo, std::uint32_t hi) {
  std::vector<std::uint32_t> sizes;
  for (std::uint32_t e = lo; e <= hi; ++e) sizes.push_back(1u << e);
  return sizes;
}

std::uint32_t env_max_exp(std::uint32_t fallback) {
  const char* s = std::getenv("BYZCOUNT_MAX_EXP");
  if (s == nullptr) return fallback;
  const int v = std::atoi(s);
  return v >= 4 ? static_cast<std::uint32_t>(v) : fallback;
}

void AccuracyAggregate::add(const proto::Accuracy& acc) {
  const double honest = acc.honest > 0 ? static_cast<double>(acc.honest) : 1.0;
  frac_in_band.add(acc.frac_in_band);
  if (acc.decided > 0) {
    mean_ratio.add(acc.mean_ratio);
    min_ratio.add(acc.min_ratio);
    max_ratio.add(acc.max_ratio);
  }
  crashed_frac.add(static_cast<double>(acc.crashed) / honest);
  undecided_frac.add(static_cast<double>(acc.undecided) / honest);
  decided_frac.add(static_cast<double>(acc.decided) / honest);
}

TrialSweep sweep_trials(const sim::TrialConfig& cfg, std::uint32_t trials,
                        const bench_core::TrialScheduler& scheduler) {
  TrialSweep sweep;
  sweep.results = scheduler.map(trials, [&](std::uint64_t t) {
    sim::TrialConfig trial_cfg = cfg;
    trial_cfg.seed = bench_core::TrialScheduler::trial_seed(cfg.seed, t);
    return sim::run_trial(trial_cfg);
  });
  // Aggregation happens in trial order so the sweep is reproducible
  // bit-for-bit regardless of which worker ran which trial.
  for (const auto& r : sweep.results) {
    sweep.aggregate.add(r.accuracy);
    sweep.frac_in_band.push_back(r.accuracy.frac_in_band);
    if (r.accuracy.decided > 0) sweep.mean_ratio.push_back(r.accuracy.mean_ratio);
  }
  return sweep;
}

}  // namespace byz::analysis
