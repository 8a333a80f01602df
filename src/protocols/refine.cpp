#include "protocols/refine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>

#include "obs/trace.hpp"
#include "protocols/color.hpp"
#include "util/stats.hpp"

namespace byz::proto {

using graph::NodeId;

double refined_log_estimate(std::uint32_t decided_phase, std::uint32_t d) {
  if (decided_phase == 0) return 0.0;
  const std::uint32_t r = decided_phase > 2 ? decided_phase - 2 : 0;
  return ell(d, r);
}

std::vector<double> refine_run(const RunResult& result, std::uint32_t d) {
  obs::Span refine_span("protocols.refine");
  std::vector<double> refined(result.estimate.size(), 0.0);
  for (std::size_t v = 0; v < result.estimate.size(); ++v) {
    if (result.status[v] == NodeStatus::kDecided) {
      refined[v] = refined_log_estimate(result.estimate[v], d);
    }
  }
  return refined;
}

std::vector<double> smooth_estimates(const graph::Overlay& overlay,
                                     const std::vector<bool>& byz_mask,
                                     const std::vector<double>& estimates,
                                     EstimateLie lie) {
  obs::Span smooth_span("protocols.smooth");
  const NodeId n = overlay.num_nodes();
  if (byz_mask.size() != n || estimates.size() != n) {
    throw std::invalid_argument("smooth_estimates: size mismatch");
  }
  // What each node answers when queried: an honest node its estimate, or
  // silence if it has none; a Byzantine node per `lie` (a plausible lie is
  // indistinguishable from an honest report, so kHonest replays its own
  // estimate slot). Every report is +0.0 or positive, never NaN, so equal
  // reports are equal bit for bit.
  const auto report = [&](NodeId w) -> std::optional<double> {
    if (byz_mask[w] && lie == EstimateLie::kInflate) return 1e6;
    if (byz_mask[w] && lie == EstimateLie::kDeflate) return 0.0;
    if (estimates[w] > 0.0) return estimates[w];
    return std::nullopt;
  };

  // Replace each report by its rank among the distinct reports, once.
  constexpr std::uint32_t kSilent = std::numeric_limits<std::uint32_t>::max();
  std::vector<double> distinct;
  for (NodeId w = 0; w < n; ++w) {
    if (const auto value = report(w)) distinct.push_back(*value);
  }
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  std::vector<std::uint32_t> rank(n, kSilent);
  for (NodeId w = 0; w < n; ++w) {
    if (const auto value = report(w)) {
      rank[w] = static_cast<std::uint32_t>(
          std::lower_bound(distinct.begin(), distinct.end(), *value) -
          distinct.begin());
    }
  }

  // Median of the window {v} ∪ N_G(v): count its ranks, then read order
  // statistics lo and lo+1 off the few distinct ranks, sorted.
  std::vector<double> smoothed(n, 0.0);
  std::vector<std::uint32_t> count(distinct.size(), 0);
  std::vector<std::uint32_t> seen;  // distinct ranks in the window
  std::uint64_t size = 0;           // window entries
  const auto tally = [&](NodeId w) {
    const std::uint32_t r = rank[w];
    if (r == kSilent) return;
    if (count[r]++ == 0) seen.push_back(r);
    ++size;
  };
  const graph::Graph& g = overlay.g();
  for (NodeId v = 0; v < n; ++v) {
    if (byz_mask[v]) continue;
    seen.clear();
    size = 0;
    tally(v);
    for (const NodeId w : g.neighbors(v)) tally(w);
    if (size == 0) continue;
    std::sort(seen.begin(), seen.end());
    // util::percentile(window, 0.5), arithmetic for arithmetic.
    const double pos = 0.5 * static_cast<double>(size - 1);
    const auto lo = static_cast<std::uint64_t>(pos);
    const std::uint64_t hi = lo + 1 < size ? lo + 1 : lo;
    double below = 0.0;
    double above = 0.0;
    std::uint64_t before = 0;  // window entries of smaller rank
    for (const std::uint32_t r : seen) {
      const std::uint64_t after = before + count[r];
      if (before <= lo && lo < after) below = distinct[r];
      if (before <= hi && hi < after) above = distinct[r];
      before = after;
      count[r] = 0;
    }
    const double frac = pos - static_cast<double>(lo);
    smoothed[v] = below * (1.0 - frac) + above * frac;
  }
  return smoothed;
}

RefinedAccuracy summarize_refined(const std::vector<double>& estimates,
                                  const std::vector<bool>& byz_mask,
                                  std::uint64_t true_n) {
  if (estimates.size() != byz_mask.size()) {
    throw std::invalid_argument("summarize_refined: size mismatch");
  }
  RefinedAccuracy acc;
  const double log_n = std::log2(static_cast<double>(true_n));
  util::OnlineStats stats;
  for (std::size_t v = 0; v < estimates.size(); ++v) {
    if (byz_mask[v] || estimates[v] <= 0.0) continue;
    stats.add(estimates[v] / log_n);
  }
  acc.with_estimate = stats.count();
  acc.mean_ratio = stats.mean();
  acc.min_ratio = stats.count() ? stats.min() : 0.0;
  acc.max_ratio = stats.count() ? stats.max() : 0.0;
  acc.stddev_ratio = stats.stddev();
  return acc;
}

}  // namespace byz::proto
