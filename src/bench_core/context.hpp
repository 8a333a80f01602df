// Per-scenario run context handed to every registered experiment: scaling,
// the shared trial scheduler, the overlay cache, table emission (stdout +
// capture + structured JSON), and metric recording for BENCH_<exp>.json.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "analysis/experiment.hpp"
#include "bench_core/json.hpp"
#include "bench_core/overlay_cache.hpp"
#include "bench_core/scheduler.hpp"
#include "sim/instrumentation.hpp"
#include "sim/runner.hpp"
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
  /// byzobs/metrics/v1 JSON file (src/obs/metrics.hpp); empty = off.
  std::string metrics_out;
  /// Divergence-forensics audit (src/obs/digest.hpp): oracle scenarios
  /// attach digesters to both execution tiers, compare the hierarchical
  /// digest trails, and emit a byzobs/forensics/v1 report on divergence.
  /// Pure read-side: BENCH manifests are bitwise identical with auditing
  /// on and off (E29 + CI guard it).
  bool audit = false;
  /// Directory for DIGEST_<exp>.json sidecars (run-level digests) and
  /// forensic reports; empty = render-only audit (nothing written).
  std::string digest_out;
  /// Protocol backend for scenarios that honor a backend selection (the
  /// cross-backend scenarios always run their full backend set). Must be
  /// a registered proto::Estimator name; byzbench validates it against
  /// the registry before any scenario runs. "" = the scenario's default
  /// (the Algorithm-2 stack).
  std::string backend;
};

class RunContext {
 public:
  RunContext(const ScenarioSpec& spec, const RunOptions& opts,
             OverlayCache& cache, const TrialScheduler& scheduler);

  [[nodiscard]] const ScenarioSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] double scale() const noexcept { return scale_; }
  [[nodiscard]] const TrialScheduler& scheduler() const noexcept {
    return scheduler_;
  }
  [[nodiscard]] OverlayCache& cache() noexcept { return cache_; }
  /// Audit mode (RunOptions::audit): scenarios with an oracle seam thread
  /// an obs::AuditConfig through it when this is set.
  [[nodiscard]] bool audit() const noexcept;
  /// RunOptions::digest_out (forensics / digest-sidecar directory).
  [[nodiscard]] const std::string& digest_out() const noexcept;
  /// RunOptions::backend — registry-validated estimator name, or "" for
  /// the scenario's default stack.
  [[nodiscard]] const std::string& backend() const noexcept;

  /// Trial count after --scale (>= 1).
  [[nodiscard]] std::uint32_t trials(std::uint32_t base) const;

  /// Sweep cap: env-controlled BYZCOUNT_MAX_EXP, shrunk by --scale < 1
  /// (every halving of scale drops one exponent, floor 10) so smoke runs
  /// stay small without per-scenario plumbing.
  [[nodiscard]] std::uint32_t max_exp(std::uint32_t fallback) const;

  /// Cached overlay lookup (paper k).
  [[nodiscard]] std::shared_ptr<const graph::Overlay> overlay(
      graph::NodeId n, std::uint32_t d, std::uint64_t seed);

  /// `count` independent protocol trials through the shared scheduler,
  /// trial t seeded with TrialScheduler::trial_seed(cfg.seed, t) — bitwise
  /// identical for every --jobs value.
  [[nodiscard]] std::vector<sim::TrialResult> run_trials(
      const sim::TrialConfig& cfg, std::uint32_t count);

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

  /// The BENCH_<exp>.json document built so far (orchestrator adds
  /// wall-time and cache stats before writing).
  [[nodiscard]] Json& doc() noexcept { return doc_; }

 private:
  const ScenarioSpec& spec_;
  const RunOptions& opts_;
  OverlayCache& cache_;
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
