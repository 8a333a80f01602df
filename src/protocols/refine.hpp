// Estimate refinement and almost-everywhere smoothing — implementations of
// two directions the paper leaves open (§4: "whether one can improve the
// approximation factor of the estimate of log n to 1 ± o(1)").
//
// 1. Calibration. Algorithm 2's output i* is a termination PHASE: the
//    point where the flood ball B(v, i) stops producing fresh maxima,
//    i.e. i* ≈ ecc_H(v) + O(1). Under the H(n,d) model the ball grows as
//    |B(v, r)| = Θ(d (d-1)^(r-1)), so the model-aware readout
//        log2(n-hat) = l_{i*-2} = log2 d + (i*-2) log2(d-1)
//    converts the multiplicative-factor estimate into an additive-O(1)
//    one: the ratio to log2 n tends to 1 + O(1/log n). The calibration
//    inherits Algorithm 2's Byzantine tolerance outright because it is a
//    deterministic function of i*.
//
// 2. Smoothing. Different honest nodes decide within ±1-2 phases of each
//    other. Each node can collect the ESTIMATES of its G-neighbors over
//    direct channels (ids are authentic on channels, §2.1 — unlike flooded
//    third-party claims, these values are attributable) and take the
//    median. Byzantine neighbors may report arbitrary values, but they are
//    a vanishing minority of every honest G-ball w.h.p., so the median is
//    robust; honest estimates concentrate, so smoothing collapses the
//    spread. This is the "almost-everywhere agreement on the estimate"
//    post-processing the paper's introduction motivates.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/small_world.hpp"
#include "protocols/estimate.hpp"

namespace byz::proto {

/// Model-aware readout of a decided phase (see file comment); returns 0
/// for undecided/crashed inputs (phase 0). Clamps i* <= 2 to l_0.
[[nodiscard]] double refined_log_estimate(std::uint32_t decided_phase,
                                          std::uint32_t d);

/// Per-node refined estimates for a whole run (0 where undecided/crashed).
[[nodiscard]] std::vector<double> refine_run(const RunResult& result,
                                             std::uint32_t d);

/// How Byzantine neighbors respond to estimate queries during smoothing.
enum class EstimateLie : std::uint8_t {
  kHonest,   ///< report a plausible value (indistinguishable from honest)
  kInflate,  ///< report an absurdly large estimate
  kDeflate,  ///< report zero
};

/// One round of median smoothing over closed G-neighborhoods. Crashed and
/// undecided honest nodes query but contribute nothing (they have no
/// estimate); Byzantine responses follow `lie`. Returns the smoothed
/// estimates (log2-scale), 0 where the node had no estimate and gathered
/// no quorum; each equals util::median of the node's window, bit for bit.
/// Cost: one O(n log n) ranking of the reports, then O(|ball| + t log t)
/// per node, t = the number of distinct reports in its ball. t is small on
/// refine_run output: it holds one value l(d, r) per decided phase, and
/// the nodes of a ball decide within a few phases of each other (the lie
/// adds one more value).
[[nodiscard]] std::vector<double> smooth_estimates(
    const graph::Overlay& overlay, const std::vector<bool>& byz_mask,
    const std::vector<double>& estimates, EstimateLie lie);

/// Accuracy of a real-valued log2-estimate vector against the truth.
struct RefinedAccuracy {
  std::uint64_t with_estimate = 0;
  double mean_ratio = 0.0;  ///< mean est/log2(n) over nodes with estimates
  double min_ratio = 0.0;
  double max_ratio = 0.0;
  double stddev_ratio = 0.0;
};
[[nodiscard]] RefinedAccuracy summarize_refined(
    const std::vector<double>& estimates, const std::vector<bool>& byz_mask,
    std::uint64_t true_n);

}  // namespace byz::proto
