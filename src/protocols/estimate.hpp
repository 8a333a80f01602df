// Per-node protocol outcomes shared by the message-level engine and the
// fast path, plus the accuracy summaries the experiments report.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "sim/instrumentation.hpp"

namespace byz::proto {

enum class NodeStatus : std::uint8_t {
  kDecided,    ///< honest, terminated with an estimate
  kUndecided,  ///< honest, still active when the phase cap was reached
  kCrashed,    ///< honest, shut down by the Algorithm-2 line-2 crash rule
  kByzantine,
  kDeparted,   ///< left the overlay during a mid-run-churn run; no longer a
               ///< member, so accuracy summaries skip it like a Byzantine id
};

struct RunResult {
  std::vector<NodeStatus> status;       ///< per node
  std::vector<std::uint32_t> estimate;  ///< decided phase i (0 if none)
  std::uint32_t phases_executed = 0;
  std::uint64_t flood_rounds = 0;       ///< protocol rounds (paper's count)
  /// Subphase accounting: scheduled = what the schedule prescribes for the
  /// executed phases; executed = the subphases actually flooded. Every run
  /// floods its whole schedule, so the two agree; the parity anchors
  /// compare both.
  std::uint64_t subphases_scheduled = 0;
  std::uint64_t subphases_executed = 0;
  sim::Instrumentation instr;

  /// Bitwise identity: statuses, estimates, phase/round/subphase counts,
  /// and every instrumentation counter. This is the relation the E24/E26
  /// parity anchors and the tier-equivalence suites assert.
  bool operator==(const RunResult&) const = default;
};

/// Accuracy summary against the true size n: the paper's guarantee is that
/// all but ε·n honest nodes land in [c1·log n, c2·log n].
struct Accuracy {
  std::uint64_t honest = 0;
  std::uint64_t decided = 0;
  std::uint64_t crashed = 0;
  std::uint64_t undecided = 0;
  std::uint64_t in_band = 0;       ///< decided with ratio in [lo, hi]
  double min_ratio = 0.0;          ///< min over decided of est / log2(n)
  double max_ratio = 0.0;
  double mean_ratio = 0.0;
  double frac_in_band = 0.0;       ///< in_band / honest
  double frac_good = 0.0;          ///< in_band / decided

  bool operator==(const Accuracy&) const = default;
};

/// The default accepted band for the ratio est/log2(n): it covers the
/// d-dependent termination point diameter ≈ log n / log(d-1) with generous
/// slack (a "constant factor" band).
inline constexpr double kBandLo = 0.05;
inline constexpr double kBandHi = 3.0;

/// Computes the summary. `lo`/`hi` bound the accepted ratio est/log2(n).
/// Backends with a tighter contract pass their own EstimatorBound.
[[nodiscard]] Accuracy summarize_accuracy(const RunResult& result,
                                          std::uint64_t true_n,
                                          double lo = kBandLo,
                                          double hi = kBandHi);

/// Median estimate over the decided nodes (0.0 if none decided). This is
/// the scale-free per-run aggregate the cross-backend agreement oracle
/// compares: unlike summarize_accuracy it needs no ground-truth n, so the
/// pairwise check is deployable in production, not just in tests.
[[nodiscard]] double median_decided_estimate(const RunResult& result);

}  // namespace byz::proto
