// Cross-backend oracle: run two independent proto::Estimator backends on
// the SAME overlay, adversary placement, and seed, then assert (a) each
// lands within its own declared accuracy bound and (b) their median
// decided estimates agree within the combined band implied by those
// bounds. The backends share no decision logic — Algorithm 2 reads a
// threshold race's stopping phase, BRC reads a committed-color maximum —
// so agreement is evidence against implementation bugs that same-algorithm
// tier parity can never catch (a bug in shared machinery shifts both tiers
// identically; it will NOT shift two algorithms identically). E31/E32
// sweep this check across the grid; run_churn's shadow backend applies it
// per epoch in production runs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "adversary/strategies.hpp"
#include "graph/small_world.hpp"
#include "protocols/estimator.hpp"

namespace byz::analysis {

/// One backend's judged outcome on the shared instance.
struct BackendOutcome {
  std::string name;
  proto::EstimatorBound bound;   ///< the backend's own declared contract
  proto::Accuracy accuracy;      ///< judged against that contract's band
  double median_estimate = 0.0;  ///< median decided estimate (0 if none)
  double median_ratio = 0.0;     ///< median_estimate / log2(n)
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  /// The backend's own-bound verdict: some node decided, the in-band
  /// fraction honors the declared ε outlier budget, and the median ratio
  /// itself sits inside the declared band.
  bool in_band = false;
};

/// The pairwise verdict. `ratio` is a.median_estimate / b.median_estimate;
/// [combined_lo, combined_hi] is combined_agreement_bound(a.bound,
/// b.bound). `agree` is the ground-truth-free check (the deployable one);
/// ok() additionally demands both own-bound verdicts — the full oracle
/// E32 guards at zero violations.
struct BackendComparison {
  BackendOutcome a;
  BackendOutcome b;
  double ratio = 0.0;
  double combined_lo = 0.0;
  double combined_hi = 0.0;
  bool agree = false;

  [[nodiscard]] bool ok() const { return agree && a.in_band && b.in_band; }
};

/// Runs `ea` and `eb` cold on identical inputs and judges both. Each
/// backend gets a FRESH adversary strategy of the same kind (strategies
/// carry per-run plan state); both see the same byz_mask and color_seed,
/// so the instance — topology, corruption placement, coin table — is held
/// fixed while the algorithm varies.
[[nodiscard]] BackendComparison compare_backends(
    const graph::Overlay& overlay, const std::vector<bool>& byz_mask,
    adv::StrategyKind strategy, std::uint64_t color_seed,
    const proto::Estimator& ea, const proto::Estimator& eb);

/// The own-bound + median-ratio judgment for a single backend run
/// (compare_backends applies it to both sides; the run_churn shadow uses
/// it directly on the shadow's RunResult).
[[nodiscard]] BackendOutcome judge_backend(const proto::Estimator& estimator,
                                           const graph::Overlay& overlay,
                                           const proto::RunResult& result);

}  // namespace byz::analysis
