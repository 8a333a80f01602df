// Drives a byzbench run: resolves the filter against the registry, runs
// each scenario on a shared scheduler, times it, and writes
// BENCH_<exp>.json manifests for the perf-trajectory tracking.
#pragma once

#include <string>
#include <vector>

#include "bench_core/context.hpp"
#include "bench_core/registry.hpp"

namespace byz::bench_core {

struct ScenarioOutcome {
  std::string id;
  bool ok = false;
  double wall_seconds = 0.0;
  std::string error;      ///< exception text when !ok
  std::string json_path;  ///< written manifest ("" when --json-out unset)
};

/// Runs every scenario in `registry` matching opts.filter. Returns one
/// outcome per scenario, in execution (id) order.
[[nodiscard]] std::vector<ScenarioOutcome> run_scenarios(
    const Registry& registry, const RunOptions& opts);

/// Renders the --list table (id, title, trials, grid, metrics).
[[nodiscard]] std::string list_scenarios(const Registry& registry);

/// Renders the end-of-run summary table.
[[nodiscard]] std::string summarize_outcomes(
    const std::vector<ScenarioOutcome>& outcomes);

}  // namespace byz::bench_core
