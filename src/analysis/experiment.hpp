// Shared experiment plumbing for the bench binaries: standard size sweeps,
// trial-level accuracy aggregation, and environment-controlled scaling so
// the same binaries serve both quick CI runs and full reproductions.
#pragma once

#include <cstdint>
#include <vector>

#include "bench_core/scheduler.hpp"
#include "protocols/estimate.hpp"
#include "sim/runner.hpp"
#include "util/stats.hpp"

namespace byz::analysis {

/// Power-of-two sweep 2^lo .. 2^hi inclusive.
[[nodiscard]] std::vector<std::uint32_t> pow2_sizes(std::uint32_t lo,
                                                    std::uint32_t hi);

/// BYZCOUNT_MAX_EXP (if set, and >= 4) caps sweep sizes at 2^value.
[[nodiscard]] std::uint32_t env_max_exp(std::uint32_t fallback);

/// Accuracy statistics aggregated over trials.
struct AccuracyAggregate {
  util::OnlineStats frac_in_band;  ///< fraction of honest nodes in band
  util::OnlineStats mean_ratio;    ///< mean est/log2(n) over decided nodes
  util::OnlineStats min_ratio;
  util::OnlineStats max_ratio;
  util::OnlineStats crashed_frac;
  util::OnlineStats undecided_frac;
  util::OnlineStats decided_frac;

  void add(const proto::Accuracy& acc);
};

/// A Monte-Carlo sweep's raw and aggregated outcomes: the aggregate plus
/// per-trial series (trial order = seed order, independent of --jobs).
struct TrialSweep {
  AccuracyAggregate aggregate;
  std::vector<sim::TrialResult> results;   ///< ordered by trial index
  std::vector<double> frac_in_band;        ///< per trial
  std::vector<double> mean_ratio;          ///< per trial (decided > 0 only)
};

/// Runs `trials` independent repetitions of `cfg` through the shared
/// bench_core scheduler, trial t seeded with
/// TrialScheduler::trial_seed(cfg.seed, t) — results are bitwise
/// identical for every worker count.
[[nodiscard]] TrialSweep sweep_trials(const sim::TrialConfig& cfg,
                                      std::uint32_t trials,
                                      const bench_core::TrialScheduler& scheduler);

}  // namespace byz::analysis
