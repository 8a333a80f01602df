// The pluggable protocol-backend interface: every counting algorithm in
// the tree (Algorithm 1/2 from the source paper, Byzantine-Resilient
// Counting from arXiv 2204.11951) is an Estimator — one entry point across
// the cold and mid-run tiers plus a DECLARED accuracy contract. The
// declared bound is what makes cross-backend comparison an oracle: two
// independent algorithms must each land within their own published band,
// and their pair ratio must land within the combined band
// (combined_agreement_bound) — a far stronger check than any
// same-algorithm tier parity, because the backends share no decision
// logic. analysis::compare_backends runs it; E31/E32 and the run_churn
// shadow wire it into CI.
//
// The backends are a fixed table of "algo1", "algo2" and "brc", built by
// name with make_estimator. The CLI (`size_service --backend /
// --shadow-backend`) resolves user input through the same table, so an
// unknown name fails with the known-name list.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "adversary/strategies.hpp"
#include "graph/small_world.hpp"
#include "protocols/fastpath.hpp"
#include "protocols/run_common.hpp"

namespace byz::proto {

/// A backend's declared accuracy contract on an overlay: all but an
/// `eps` fraction of honest members decide an estimate whose ratio
/// est / log2(n) lies in [lo, hi]. The band is the backend's PAPER claim
/// (constants included), not a tuned test tolerance — compare_backends
/// asserts against it, so tightening it strengthens the oracle and
/// loosening it must be justified in the backend's docs.
struct EstimatorBound {
  double lo = 0.0;
  double hi = 0.0;
  double eps = 0.0;

  bool operator==(const EstimatorBound&) const = default;
};

/// The pairwise agreement band for two backends' median decided estimates:
/// if A and B each honor their own bound on the same instance, then
/// median_A / median_B lies in [A.lo / B.hi, A.hi / B.lo]. This check
/// needs no ground-truth n — it is the deployable form of the oracle.
struct AgreementBound {
  double lo = 0.0;
  double hi = 0.0;
};

[[nodiscard]] AgreementBound combined_agreement_bound(const EstimatorBound& a,
                                                      const EstimatorBound& b);

class Estimator {
 public:
  virtual ~Estimator() = default;

  /// Backend name ("algo2", "brc", ...).
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// The declared accuracy contract on this overlay (may depend on n, d).
  [[nodiscard]] virtual EstimatorBound bound(
      const graph::Overlay& overlay) const = 0;

  /// One counting run. `byz_mask` spans the run's id space (node_bound
  /// under mid-run churn); `controls` selects the tier.
  [[nodiscard]] virtual RunResult run(const graph::Overlay& overlay,
                                      const std::vector<bool>& byz_mask,
                                      adv::Strategy& strategy,
                                      std::uint64_t color_seed,
                                      const RunControls& controls) const = 0;

  [[nodiscard]] RunResult run(const graph::Overlay& overlay,
                              const std::vector<bool>& byz_mask,
                              adv::Strategy& strategy,
                              std::uint64_t color_seed) const {
    return run(overlay, byz_mask, strategy, color_seed, RunControls{});
  }
};

/// Instantiates a backend by name. The ProtocolConfig carries the knobs
/// a backend understands (schedule, verification, max_phase — each backend
/// documents its mapping); throws std::invalid_argument on an unknown
/// name, listing the known names in the message (the CLI layers surface it
/// verbatim).
[[nodiscard]] std::unique_ptr<Estimator> make_estimator(
    std::string_view name, const ProtocolConfig& cfg = {});

/// Backend names, sorted.
[[nodiscard]] std::vector<std::string> estimator_names();

[[nodiscard]] bool estimator_registered(std::string_view name);

}  // namespace byz::proto
