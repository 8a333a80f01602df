// Declarative scenario registry: each experiment (E01–E32) registers its
// id, the parameter grid it sweeps, its base trial count, and the names
// of the metrics it emits, plus the run function itself. The byzbench
// binary is then nothing but "registry.match(filter) → orchestrator".
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace byz::bench_core {

class RunContext;

/// One axis of a scenario's parameter grid, for --list and the JSON
/// manifest (values are rendered as strings; grids are declarative
/// documentation of what the run function sweeps).
struct GridAxis {
  std::string name;
  std::vector<std::string> values;
};

struct ScenarioSpec {
  std::string id;           ///< stable key, e.g. "e07"
  std::string title;        ///< one-line description for --list
  std::string claim;        ///< paper claim / design question it validates
  std::vector<GridAxis> grid;
  std::uint32_t base_trials = 1;      ///< before --scale
  std::vector<std::string> metrics;   ///< metric names emitted into JSON
  std::function<void(RunContext&)> run;
};

class Registry {
 public:
  /// The process-wide registry that BYZBENCH_REGISTER feeds.
  static Registry& instance();

  /// Registers a scenario. Throws std::invalid_argument on a duplicate or
  /// empty id, or a missing run function.
  void add(ScenarioSpec spec);

  [[nodiscard]] const ScenarioSpec* find(std::string_view id) const;

  /// All scenarios ordered by id.
  [[nodiscard]] std::vector<const ScenarioSpec*> all() const;

  /// Scenarios whose id or title contains any of the comma-separated,
  /// case-insensitive terms in `filter`; empty filter = all().
  [[nodiscard]] std::vector<const ScenarioSpec*> match(
      std::string_view filter) const;

  [[nodiscard]] std::size_t size() const { return scenarios_.size(); }

 private:
  std::vector<ScenarioSpec> scenarios_;
};

/// Static-initialization helper: registers `spec` into
/// Registry::instance() at load time.
struct ScenarioRegistration {
  explicit ScenarioRegistration(ScenarioSpec spec);
};

}  // namespace byz::bench_core

/// Registers a scenario from a translation unit:
///   BYZBENCH_REGISTER(e07) { ScenarioSpec spec; ...; return spec; }
/// The braced body is a function returning the ScenarioSpec.
#define BYZBENCH_REGISTER(ident)                                        \
  static ::byz::bench_core::ScenarioSpec byzbench_make_##ident();       \
  static const ::byz::bench_core::ScenarioRegistration                  \
      byzbench_registration_##ident{byzbench_make_##ident()};           \
  static ::byz::bench_core::ScenarioSpec byzbench_make_##ident()
