#include "analysis/backend_compare.hpp"

#include <algorithm>
#include <cmath>

namespace byz::analysis {

BackendOutcome judge_backend(const proto::Estimator& estimator,
                             const graph::Overlay& overlay,
                             const proto::RunResult& result) {
  BackendOutcome out;
  out.name = std::string(estimator.name());
  out.bound = estimator.bound(overlay);
  out.accuracy = proto::summarize_accuracy(result, overlay.num_nodes(),
                                           out.bound.lo, out.bound.hi);
  out.median_estimate = proto::median_decided_estimate(result);
  const double log_n =
      std::log2(std::max(2.0, static_cast<double>(overlay.num_nodes())));
  out.median_ratio = out.median_estimate / log_n;
  out.rounds = result.flood_rounds;
  out.messages = result.instr.total_messages();
  out.in_band = out.accuracy.decided > 0 &&
                out.accuracy.frac_in_band >= 1.0 - out.bound.eps &&
                out.median_ratio >= out.bound.lo &&
                out.median_ratio <= out.bound.hi;
  return out;
}

BackendComparison compare_backends(const graph::Overlay& overlay,
                                   const std::vector<bool>& byz_mask,
                                   adv::StrategyKind strategy,
                                   std::uint64_t color_seed,
                                   const proto::Estimator& ea,
                                   const proto::Estimator& eb) {
  // Fresh strategy per backend: strategies carry per-run plan state, and
  // sharing one would leak backend A's observations into backend B's run.
  const auto sa = adv::make_strategy(strategy);
  const auto sb = adv::make_strategy(strategy);

  BackendComparison cmp;
  cmp.a = judge_backend(
      ea, overlay, ea.run(overlay, byz_mask, *sa, color_seed));
  cmp.b = judge_backend(
      eb, overlay, eb.run(overlay, byz_mask, *sb, color_seed));

  const proto::AgreementBound band =
      proto::combined_agreement_bound(cmp.a.bound, cmp.b.bound);
  cmp.combined_lo = band.lo;
  cmp.combined_hi = band.hi;
  cmp.ratio = cmp.b.median_estimate > 0.0
                  ? cmp.a.median_estimate / cmp.b.median_estimate
                  : 0.0;
  cmp.agree = cmp.a.median_estimate > 0.0 && cmp.b.median_estimate > 0.0 &&
              cmp.ratio >= cmp.combined_lo && cmp.ratio <= cmp.combined_hi;
  return cmp;
}

}  // namespace byz::analysis
