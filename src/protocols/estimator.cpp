#include "protocols/estimator.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "protocols/brc/brc.hpp"
#include "protocols/estimate.hpp"

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
    // est/log2(n) ratio spans [kBandLo, kBandHi] with the paper's slack.
    // The ε outlier budget covers crash-rule casualties and phase-cap
    // stragglers.
    return {kBandLo, kBandHi, eps_};
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

std::unique_ptr<Estimator> make_algo1(const ProtocolConfig& cfg) {
  ProtocolConfig basic = cfg;
  basic.verification.enabled = false;
  basic.crash_rule = false;
  // Algorithm 1 has no Byzantine countermeasures: its declared bound only
  // claims the CLEAN setting, so its ε is the phase-cap straggler slack.
  return std::make_unique<FastpathEstimator>("algo1", basic, /*eps=*/0.10);
}

std::unique_ptr<Estimator> make_algo2(const ProtocolConfig& cfg) {
  return std::make_unique<FastpathEstimator>("algo2", cfg, /*eps=*/0.15);
}

struct Backend {
  std::string_view name;
  std::unique_ptr<Estimator> (*make)(const ProtocolConfig&);
};

/// Every backend, sorted by name.
constexpr Backend kBackends[] = {
    {"algo1", make_algo1}, {"algo2", make_algo2}, {"brc", make_brc_estimator}};
static_assert(std::ranges::is_sorted(kBackends, {}, &Backend::name));

const Backend* find_backend(std::string_view name) {
  for (const Backend& b : kBackends) {
    if (b.name == name) return &b;
  }
  return nullptr;
}

}  // namespace

AgreementBound combined_agreement_bound(const EstimatorBound& a,
                                        const EstimatorBound& b) {
  AgreementBound out;
  out.lo = b.hi > 0.0 ? a.lo / b.hi : 0.0;
  out.hi = b.lo > 0.0 ? a.hi / b.lo : 0.0;
  return out;
}

std::unique_ptr<Estimator> make_estimator(std::string_view name,
                                          const ProtocolConfig& cfg) {
  if (const Backend* b = find_backend(name)) return b->make(cfg);
  std::string msg = "unknown estimator backend '";
  msg += name;
  msg += "' (known: ";
  for (std::size_t i = 0; i < std::size(kBackends); ++i) {
    if (i != 0) msg += ", ";
    msg += kBackends[i].name;
  }
  msg += ')';
  throw std::invalid_argument(msg);
}

std::vector<std::string> estimator_names() {
  std::vector<std::string> names;
  for (const Backend& b : kBackends) names.emplace_back(b.name);
  return names;
}

bool estimator_registered(std::string_view name) {
  return find_backend(name) != nullptr;
}

}  // namespace byz::proto
