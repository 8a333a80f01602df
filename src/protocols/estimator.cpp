#include "protocols/estimator.hpp"

#include <algorithm>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "protocols/brc/brc.hpp"

namespace byz::proto {

namespace {

/// The Algorithm 1/2 stack behind the Estimator interface. "algo2" is the
/// full paper protocol (verification + crash rule as configured); "algo1"
/// forces the ablation config (no Byzantine countermeasures) while keeping
/// the caller's schedule. Both ride every tier: run_counting_with threads
/// mid-run churn, and sim::Engine replays the same semantics message by
/// message.
class FastpathEstimator final : public Estimator {
 public:
  FastpathEstimator(std::string name, ProtocolConfig cfg, double eps)
      : name_(std::move(name)), cfg_(cfg), eps_(eps) {}

  [[nodiscard]] std::string_view name() const override { return name_; }

  [[nodiscard]] EstimatorBound bound(
      const graph::Overlay& /*overlay*/) const override {
    // Theorem 1's "constant factor" band as the repo has always judged it
    // (summarize_accuracy defaults): the decided phase tracks the
    // d-dependent termination point diameter ≈ log n / log(d-1), so the
    // est/log2(n) ratio spans [0.05, 3.0] with the paper's slack. The ε
    // outlier budget covers crash-rule casualties and phase-cap stragglers.
    return {0.05, 3.0, eps_};
  }

  [[nodiscard]] RunResult run(const graph::Overlay& overlay,
                              const std::vector<bool>& byz_mask,
                              adv::Strategy& strategy,
                              std::uint64_t color_seed,
                              const RunControls& controls) const override {
    return run_counting_with(overlay, byz_mask, strategy, cfg_, color_seed,
                             controls);
  }

 private:
  std::string name_;
  ProtocolConfig cfg_;
  double eps_;
};

struct Registry {
  std::mutex mu;
  std::map<std::string, EstimatorFactory> factories;
};

Registry& registry() {
  static Registry* r = new Registry;  // leaked: outlives static destructors
  return *r;
}

/// Built-ins are registered on first registry use (not static init — the
/// registry must work from any link order, including test binaries that
/// never reference this TU's globals).
void ensure_builtins_locked(Registry& r) {
  if (!r.factories.empty()) return;
  r.factories["algo2"] = [](const ProtocolConfig& cfg) {
    return std::make_unique<FastpathEstimator>("algo2", cfg, /*eps=*/0.15);
  };
  r.factories["algo1"] = [](const ProtocolConfig& cfg) {
    ProtocolConfig basic = cfg;
    basic.verification.enabled = false;
    basic.crash_rule = false;
    // Algorithm 1 has no Byzantine countermeasures: its declared bound only
    // claims the CLEAN setting, so its ε is the phase-cap straggler slack.
    return std::make_unique<FastpathEstimator>("algo1", basic, /*eps=*/0.10);
  };
  r.factories["brc"] = [](const ProtocolConfig& cfg) {
    return make_brc_estimator(cfg);
  };
}

}  // namespace

AgreementBound combined_agreement_bound(const EstimatorBound& a,
                                        const EstimatorBound& b) {
  AgreementBound out;
  out.lo = b.hi > 0.0 ? a.lo / b.hi : 0.0;
  out.hi = b.lo > 0.0 ? a.hi / b.lo : 0.0;
  return out;
}

void register_estimator(const std::string& name, EstimatorFactory factory) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  ensure_builtins_locked(r);
  r.factories[name] = std::move(factory);
}

std::unique_ptr<Estimator> make_estimator(std::string_view name,
                                          const ProtocolConfig& cfg) {
  Registry& r = registry();
  EstimatorFactory factory;
  {
    const std::lock_guard<std::mutex> lock(r.mu);
    ensure_builtins_locked(r);
    const auto it = r.factories.find(std::string(name));
    if (it == r.factories.end()) {
      std::string known;
      for (const auto& [key, unused] : r.factories) {
        if (!known.empty()) known += ", ";
        known += key;
      }
      throw std::invalid_argument("unknown estimator backend '" +
                                  std::string(name) + "' (known: " + known +
                                  ")");
    }
    factory = it->second;
  }
  return factory(cfg);
}

std::vector<std::string> estimator_names() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  ensure_builtins_locked(r);
  std::vector<std::string> names;
  names.reserve(r.factories.size());
  for (const auto& [key, unused] : r.factories) names.push_back(key);
  return names;
}

bool estimator_registered(std::string_view name) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  ensure_builtins_locked(r);
  return r.factories.find(std::string(name)) != r.factories.end();
}

}  // namespace byz::proto
