// Per-scenario run context handed to every registered experiment: scaling,
// the shared trial scheduler, table emission (stdout + capture + structured
// JSON), and metric recording for BENCH_<exp>.json. Scenarios build their
// own overlays; one that several trials share is built once, on the
// scheduler, before the map that reads it.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "analysis/experiment.hpp"
#include "bench_core/json.hpp"
#include "bench_core/scheduler.hpp"
#include "sim/instrumentation.hpp"
#include "util/table.hpp"

namespace byz::bench_core {

struct ScenarioSpec;

/// Orchestrator-level options (parsed by byzbench's main).
struct RunOptions {
  std::string filter;        ///< comma-separated substrings; empty = all
  double scale = 1.0;        ///< multiplies trial counts, shrinks sweeps
  unsigned jobs = 0;         ///< scheduler workers; 0 = hardware
  std::string json_out;      ///< directory for BENCH_<exp>.json; empty = off
  bool list_only = false;
  bool quiet = false;        ///< suppress table stdout (tests)
  /// Chrome trace-event JSON file (src/obs/trace.hpp); empty = tracing
  /// off. Setting it flips the obs runtime switch for the whole run.
  std::string trace_out;
  /// Directory for DIGEST_<exp>.json sidecars (run-level digests) and the
  /// byzobs/forensics/v1 reports of oracle divergences; empty = nothing
  /// written. The oracle scenarios digest both of their tiers either way
  /// (src/obs/digest.hpp), so this moves no BENCH manifest bit.
  std::string digest_out;
};

class RunContext {
 public:
  RunContext(const ScenarioSpec& spec, const RunOptions& opts,
             const TrialScheduler& scheduler);

  [[nodiscard]] const ScenarioSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] double scale() const noexcept { return scale_; }
  [[nodiscard]] const TrialScheduler& scheduler() const noexcept {
    return scheduler_;
  }
  /// RunOptions::digest_out (forensics / digest-sidecar directory).
  [[nodiscard]] const std::string& digest_out() const noexcept;

  /// Trial count after --scale (>= 1). Throws std::invalid_argument when
  /// base * scale does not fit a std::uint32_t.
  [[nodiscard]] std::uint32_t trials(std::uint32_t base) const;

  /// Sweep cap: env-controlled BYZCOUNT_MAX_EXP, shrunk by --scale < 1
  /// (every halving of scale drops one exponent, floor 10) so smoke runs
  /// stay small without per-scenario plumbing.
  [[nodiscard]] std::uint32_t max_exp(std::uint32_t fallback) const;

  /// Emits a finished table: stdout (+ BYZCOUNT_CAPTURE) and the JSON doc.
  void emit(const util::Table& table);

  /// Free-form headline (stdout + capture only).
  void line(const std::string& text);

  /// Records a scalar / structured metric into the JSON doc.
  void metric(const std::string& name, Json value);

  /// Accumulates message-accounting totals; emitted as metrics.messages.
  void count_messages(const sim::Instrumentation& instr);

  /// Records accuracy quantiles (p10/p50/p90/mean over trials) under
  /// metrics.accuracy.<name>.
  void record_accuracy(const std::string& name, std::span<const double> ratios);

  /// The BENCH_<exp>.json document built so far (the orchestrator adds
  /// the outcome before writing).
  [[nodiscard]] Json& doc() noexcept { return doc_; }

 private:
  const ScenarioSpec& spec_;
  const RunOptions& opts_;
  const TrialScheduler& scheduler_;
  double scale_;
  sim::Instrumentation message_totals_;
  bool has_messages_ = false;
  Json doc_;
};

/// Message-accounting counters as a JSON object.
[[nodiscard]] Json instrumentation_json(const sim::Instrumentation& instr);

/// {count, mean, p10, p50, p90, min, max} of a sample.
[[nodiscard]] Json quantiles_json(std::span<const double> sample);

/// Serializes a rendered table ({title, columns, rows, notes}).
[[nodiscard]] Json table_json(const util::Table& table);

}  // namespace byz::bench_core
