// E32 — the cross-ALGORITHM agreement oracle, swept and guarded at ZERO
// violations: Algorithm 2 and Byzantine-Resilient Counting share no
// decision logic (a threshold race's stopping phase vs a committed-color
// median), so running both on the identical instance — same overlay, same
// Byzantine placement, same coin seed — and asserting (a) each inside its
// own declared EstimatorBound and (b) the pair's median ratio inside
// combined_agreement_bound is a correctness check no same-algorithm tier
// parity can fake: a bug in shared machinery shifts both tiers of one
// algorithm identically, but it will not shift two algorithms
// identically. analysis::compare_backends is the oracle; run_churn's
// shadow backend applies the same check per epoch in production — this
// scenario is its offline, grid-swept form. The scenario fails on any
// nonzero guard.violations, and the golden_e32 ctest target pins the
// manifest (compare_backends is scheduler-independent: fresh strategies
// per backend, one derived seed per instance).
#include <limits>

#include "bench_common.hpp"

namespace {

using namespace byz;
using namespace byz::bench;

void run_e32(RunContext& ctx) {
  const auto sizes = analysis::pow2_sizes(10, ctx.max_exp(12));
  const auto t = ctx.trials(4);
  const std::uint32_t degrees[] = {4, 6, 8};
  const adv::StrategyKind strategies[] = {adv::StrategyKind::kHonest,
                                          adv::StrategyKind::kFakeColor,
                                          adv::StrategyKind::kSuppress};
  const auto algo2 = proto::make_estimator("algo2");
  const auto brc = proto::make_estimator("brc");

  util::Table table("E32: algo2 <-> brc agreement sweep, delta=0.7 (" +
                    std::to_string(t) + " instances per cell)");
  table.columns({"n", "d", "strategy", "ratio min", "ratio max",
                 "combined band", "agree", "own-band", "violations"});
  std::uint64_t instances = 0;
  std::uint64_t violations = 0;
  double ratio_min_all = std::numeric_limits<double>::infinity();
  double ratio_max_all = 0.0;
  for (const auto n : sizes) {
    for (const auto d : degrees) {
      for (const auto strategy : strategies) {
        const std::uint64_t base_seed =
            0xE32 + n * 64 + d * 8 + static_cast<std::uint64_t>(strategy);
        const auto comparisons = ctx.scheduler().map(t, [&](std::uint64_t i) {
          const auto seed =
              bench_core::TrialScheduler::trial_seed(base_seed, i);
          const auto overlay =
              graph::Overlay::build({.n = n, .d = d, .seed = seed});
          const auto byz = place_byz(n, 0.7, seed);
          return analysis::compare_backends(overlay, byz, strategy, seed,
                                            *algo2, *brc);
        });
        double rmin = std::numeric_limits<double>::infinity();
        double rmax = 0.0;
        double clo = 0.0, chi = 0.0;
        std::uint64_t agree = 0, own = 0, cell_violations = 0;
        for (const auto& cmp : comparisons) {
          rmin = std::min(rmin, cmp.ratio);
          rmax = std::max(rmax, cmp.ratio);
          clo = cmp.combined_lo;
          chi = cmp.combined_hi;
          if (cmp.agree) ++agree;
          if (cmp.a.in_band && cmp.b.in_band) ++own;
          if (!cmp.ok()) ++cell_violations;
          ++instances;
        }
        violations += cell_violations;
        ratio_min_all = std::min(ratio_min_all, rmin);
        ratio_max_all = std::max(ratio_max_all, rmax);
        std::string band = "[";
        band += util::format_double(clo, 3);
        band += ", ";
        band += util::format_double(chi, 3);
        band += ']';
        table.row()
            .cell(std::uint64_t{n})
            .cell(std::uint64_t{d})
            .cell(adv::to_string(strategy))
            .cell(rmin, 3)
            .cell(rmax, 3)
            .cell(band)
            .cell(std::to_string(agree) + "/" + std::to_string(t))
            .cell(std::to_string(own) + "/" + std::to_string(t))
            .cell(cell_violations);
      }
    }
  }
  table.note("Each instance holds topology, Byzantine placement, and coin "
             "seed fixed while the ALGORITHM varies; 'ratio' is "
             "median_algo2 / median_brc over decided nodes and must land in "
             "the combined band [algo2.lo/brc.hi, algo2.hi/brc.lo] implied "
             "by the two declared contracts. A violation means an instance "
             "failed agreement OR either backend's own bound — CI pins "
             "guard.violations to zero, so any future change that shifts "
             "one backend's estimates out from under its published band "
             "breaks the build, not just a dashboard.");
  ctx.emit(table);

  Json guard = Json::object();
  guard["instances"] = instances;
  guard["violations"] = violations;
  guard["ratio_min"] = ratio_min_all;
  guard["ratio_max"] = ratio_max_all;
  ctx.metric("guard", std::move(guard));
  if (violations != 0) {
    throw std::runtime_error(std::to_string(violations) + " of " +
                             std::to_string(instances) +
                             " instances broke the cross-backend agreement "
                             "bound");
  }
}

}  // namespace

BYZBENCH_REGISTER(e32) {
  ScenarioSpec spec;
  spec.id = "e32";
  spec.title = "Cross-backend agreement oracle sweep (algo2 <-> brc)";
  spec.claim = "Two independent counting algorithms on identical instances "
               "each honor their own declared accuracy bound and agree "
               "within the combined band at every (n, d, adversary) cell — "
               "zero violations, CI-guarded";
  spec.grid = {{"d", {"4", "6", "8"}},
               {"strategy", {"honest", "fake-color", "suppress"}},
               pow2_axis(10, 12)};
  spec.base_trials = 4;
  spec.metrics = {"guard.instances", "guard.violations", "guard.ratio_min",
                  "guard.ratio_max"};
  spec.run = run_e32;
  return spec;
}
