#include "bench_core/orchestrator.hpp"

#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "obs/trace.hpp"
#include "util/log.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace byz::bench_core {

namespace {

std::string grid_summary(const ScenarioSpec& spec) {
  std::ostringstream os;
  for (std::size_t i = 0; i < spec.grid.size(); ++i) {
    if (i != 0) os << " x ";
    os << spec.grid[i].name << "(" << spec.grid[i].values.size() << ")";
  }
  return os.str();
}

std::string join(const std::vector<std::string>& parts) {
  std::ostringstream os;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) os << ",";
    os << parts[i];
  }
  return os.str();
}

}  // namespace

std::vector<ScenarioOutcome> run_scenarios(const Registry& registry,
                                           const RunOptions& opts) {
  const auto selected = registry.match(opts.filter);
  const TrialScheduler scheduler(opts.jobs);
  // Observability is opt-in per run: asking for a trace file flips the
  // runtime switch. It is pure read-side (src/obs/obs.hpp), so the BENCH
  // manifests below are bitwise identical either way (CI-guarded).
  const bool observe = !opts.trace_out.empty();
  if (observe) obs::set_enabled(true);

  for (const auto* dir : {&opts.json_out, &opts.digest_out}) {
    std::error_code ec;
    if (!dir->empty()) std::filesystem::create_directories(*dir, ec);
  }

  std::vector<ScenarioOutcome> outcomes;
  outcomes.reserve(selected.size());
  for (const auto* spec : selected) {
    ScenarioOutcome outcome;
    outcome.id = spec->id;
    RunContext ctx(*spec, opts, scheduler);
    util::Timer timer;
    {
      obs::Span scenario_span("bench.scenario");
      scenario_span.arg("id", spec->id.c_str());
      try {
        spec->run(ctx);
        outcome.ok = true;
      } catch (const std::exception& e) {
        outcome.error = e.what();
      } catch (...) {
        outcome.error = "unknown error";
      }
    }
    outcome.wall_seconds = timer.seconds();

    if (!opts.json_out.empty()) {
      // The BENCH manifest carries only deterministic content — it is
      // bitwise identical for every --jobs value (the contract the
      // determinism tests and CI smoke pin down).
      auto& doc = ctx.doc();
      doc["ok"] = outcome.ok;
      if (!outcome.ok) doc["error"] = outcome.error;

      // Volatile run facts live in the RUNMETA sidecar: worker count,
      // wall-time and, when tracing, the span buffers' saturation.
      Json meta = Json::object();
      meta["schema"] = "byzbench/meta/v1";
      meta["experiment"] = spec->id;
      meta["jobs"] = std::uint64_t{scheduler.jobs()};
      meta["wall_seconds"] = outcome.wall_seconds;
      meta["ok"] = outcome.ok;
      if (!outcome.ok) meta["error"] = outcome.error;
      if (observe) {
        // Span-buffer saturation so far: nonzero means the trace file will
        // be missing tails (tools/trace_summary.py fails on it).
        Json observability = Json::object();
        observability["dropped_spans"] = obs::trace_snapshot().dropped;
        meta["observability"] = std::move(observability);
      }

      outcome.json_path = opts.json_out + "/BENCH_" + spec->id + ".json";
      const std::string meta_path =
          opts.json_out + "/RUNMETA_" + spec->id + ".json";
      std::ofstream out(outcome.json_path);
      if (out) {
        out << doc.dump(2) << '\n';
      } else {
        outcome.ok = false;
        outcome.error = "cannot write " + outcome.json_path;
        outcome.json_path.clear();
      }
      std::ofstream meta_out(meta_path);
      if (meta_out) {
        meta_out << meta.dump(2) << '\n';
      } else if (outcome.ok) {
        outcome.ok = false;
        outcome.error = "cannot write " + meta_path;
      }
    }
    outcomes.push_back(std::move(outcome));
  }

  if (!opts.trace_out.empty() && !obs::write_chrome_trace(opts.trace_out)) {
    BYZ_ERROR << "byzbench: cannot write trace file " << opts.trace_out;
  }
  return outcomes;
}

std::string list_scenarios(const Registry& registry) {
  util::Table table("byzbench scenarios");
  table.columns({"id", "title", "trials", "grid", "metrics"});
  for (const auto* spec : registry.all()) {
    table.row()
        .cell(spec->id)
        .cell(spec->title)
        .cell(spec->base_trials)
        .cell(grid_summary(*spec))
        .cell(join(spec->metrics));
  }
  return table.str();
}

std::string summarize_outcomes(const std::vector<ScenarioOutcome>& outcomes) {
  util::Table table("byzbench run summary");
  table.columns({"id", "status", "wall s", "json"});
  for (const auto& o : outcomes) {
    table.row()
        .cell(o.id)
        .cell(o.ok ? "ok" : ("FAILED: " + o.error))
        .cell(o.wall_seconds, 2)
        .cell(o.json_path.empty() ? "-" : o.json_path);
  }
  return table.str();
}

}  // namespace byz::bench_core
