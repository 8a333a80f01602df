// byzbench — unified experiment orchestrator. Replaces the 16 standalone
// bench_eXX binaries: every experiment registers a ScenarioSpec (grid,
// trials, metrics, run function) and this driver resolves --filter
// against the registry, runs the selection on a shared scheduler, and
// emits both the human tables and BENCH_<exp>.json.
//
//   $ byzbench --list
//   $ byzbench --filter e07 --scale 0.1 --json-out .
//   $ byzbench --jobs 4
#include <cmath>
#include <iostream>

#include "byzcount.hpp"

int main(int argc, char** argv) {
  using namespace byz;

  util::ArgParser args("byzbench",
                       "unified byzcount experiment orchestrator (E01-E32)");
  args.add_flag("list", "enumerate registered scenarios and exit");
  args.add_option("filter", "comma-separated id/title substrings (empty = all)",
                  "");
  args.add_option("scale", "trial multiplier; < 1 also shrinks size sweeps",
                  "1.0");
  args.add_option("jobs", "scheduler worker threads (0 = hardware)", "0");
  args.add_option("json-out", "directory for BENCH_<exp>.json (empty = off)",
                  "");
  args.add_option("trace-out",
                  "Chrome trace-event JSON file (Perfetto/chrome://tracing; "
                  "empty = tracing off)",
                  "");
  args.add_option("digest-out",
                  "directory for DIGEST_<exp>.json run-digest sidecars and "
                  "the forensics reports of oracle divergences (empty = off)",
                  "");
  auto& registry = bench_core::Registry::instance();
  bench_core::RunOptions opts;
  try {
    if (!args.parse(argc, argv)) return 0;
    if (args.flag("list")) {
      std::cout << bench_core::list_scenarios(registry);
      return 0;
    }
    opts.filter = args.str("filter");
    opts.scale = args.real("scale");
    opts.jobs = bench_core::TrialScheduler::checked_jobs(args.integer("jobs"));
    opts.json_out = args.str("json-out");
    opts.trace_out = args.str("trace-out");
    opts.digest_out = args.str("digest-out");
  } catch (const std::exception& e) {
    std::cerr << "byzbench: " << e.what() << "\n";
    return 2;
  }
  if (!std::isfinite(opts.scale) || opts.scale <= 0.0) {
    std::cerr << "byzbench: --scale must be finite and > 0, got " << opts.scale
              << "\n";
    return 2;
  }

  const auto selected = registry.match(opts.filter);
  if (selected.empty()) {
    std::cerr << "byzbench: no scenario matches filter '" << opts.filter
              << "' (try --list)\n";
    return 2;
  }

  const auto outcomes = bench_core::run_scenarios(registry, opts);
  std::cout << bench_core::summarize_outcomes(outcomes);
  for (const auto& o : outcomes) {
    if (!o.ok) return 1;
  }
  return 0;
}
