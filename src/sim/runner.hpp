// Monte-Carlo trial: builds an independent overlay + Byzantine placement +
// protocol run from one seed. Sweeps over many trials run on the shared
// bench_core scheduler (analysis::sweep_trials, bench_core::RunContext),
// which derives each trial's seed with SplitMix64 so results are bitwise
// independent of the worker count and schedule.
#pragma once

#include <cstdint>

#include "adversary/strategies.hpp"
#include "graph/small_world.hpp"
#include "protocols/estimate.hpp"
#include "protocols/fastpath.hpp"

namespace byz::sim {

/// Byzantine budget B(n) = floor(n^(1-delta)) (the paper's bound), capped
/// at n/4. Throws std::invalid_argument unless delta is in [0, 1] (NaN and
/// infinities included).
[[nodiscard]] graph::NodeId derive_byz_count(graph::NodeId n, double delta);

struct TrialConfig {
  graph::OverlayParams overlay;          ///< n, d, k, (seed overridden per trial)
  double delta = 0.5;                    ///< drives B(n) unless byz_count >= 0
  std::int64_t byz_count = -1;           ///< explicit count; -1 = derive
  adv::StrategyKind strategy = adv::StrategyKind::kHonest;
  proto::ProtocolConfig protocol;
  std::uint64_t seed = 1;                ///< base seed of the trial series
};

struct TrialResult {
  proto::RunResult run;
  proto::Accuracy accuracy;
  graph::NodeId byz_count = 0;
};

/// One trial with the config's seed.
[[nodiscard]] TrialResult run_trial(const TrialConfig& cfg);

}  // namespace byz::sim
