// E1 — Definition-9 node-category sizes vs the Lemma-2 bounds.
//
// Validates: Lemma 1/21 (|LTL| >= n - O(n^0.8)), Lemma 2 (|Safe|,
// |Byz-safe| = n - o(n)), and the radius parameterization discussion of
// DESIGN.md §3.4 (the paper's a·log n radius is < 1 at these sizes, so we
// report radii 1 and 2 explicitly).
#include "bench_common.hpp"

namespace {

using namespace byz;
using namespace byz::bench;

struct Row {
  graph::NodeId n = 0;
  graph::NodeCategories cat1;
  graph::NodeCategories cat2;
  std::uint32_t chain = 0;
  double paper_radius = 0.0;
};

void run_e01(RunContext& ctx) {
  const auto sizes = analysis::pow2_sizes(10, ctx.max_exp(14));
  const std::uint32_t d = 8;

  // Both deltas classify the same overlays: build each size's once.
  const auto overlays = ctx.scheduler().map(sizes.size(), [&](std::uint64_t i) {
    return graph::Overlay::build(
        {.n = sizes[i], .d = d, .seed = 0xE1 + sizes[i]});
  });

  for (const double delta : {0.5, 0.7}) {
    // Grid cells are independent: classify every size on the scheduler.
    const auto rows = ctx.scheduler().map(sizes.size(), [&](std::uint64_t i) {
      const auto n = sizes[i];
      const auto& overlay = overlays[i];
      const auto byz = place_byz(n, delta, 0xE1 + n);
      Row row;
      row.n = n;
      row.cat1 = graph::classify_categories(overlay, byz, 1, 1);
      row.cat2 = graph::classify_categories(overlay, byz, 1, 2);
      row.chain = graph::longest_byzantine_chain(overlay.h_simple(), byz, 16);
      row.paper_radius = graph::paper_radius_a(n, d, overlay.k(), delta);
      return row;
    });

    util::Table table(
        "E1: node categories, d=8, B=n^(1-" + util::format_double(delta, 1) +
        "), LTL radius 1");
    table.columns({"n", "B", "n^0.8", "NLT(r1)", "Safe(rho1)", "Unsafe(rho1)",
                   "BUS(rho1)", "Byz-safe(rho1)", "BUS(rho2)", "max byz chain",
                   "a*log2n (paper)"});
    std::vector<double> safe_frac;
    for (const auto& row : rows) {
      table.row()
          .cell(std::uint64_t{row.n})
          .cell(row.cat1.byz)
          .cell(std::pow(static_cast<double>(row.n), 0.8), 0)
          .cell(row.cat1.nlt)
          .cell(row.cat1.safe)
          .cell(row.cat1.unsafe_)
          .cell(row.cat1.bus)
          .cell(row.cat1.byz_safe)
          .cell(row.cat2.bus)
          .cell(std::uint64_t{row.chain})
          .cell(row.paper_radius, 3);
      safe_frac.push_back(static_cast<double>(row.cat1.safe) /
                          static_cast<double>(row.n));
    }
    table.note("Lemma 2 predicts: NLT = O(n^0.8); Safe, Byz-safe = n - o(n); "
               "BUS = o(n). Observation 6 predicts max chain < k = 3 w.h.p. "
               "for delta > 3/d.");
    ctx.emit(table);
    ctx.metric("safe_frac_delta" + util::format_double(delta, 1),
               bench_core::quantiles_json(safe_frac));
  }
}

}  // namespace

BYZBENCH_REGISTER(e01) {
  ScenarioSpec spec;
  spec.id = "e01";
  spec.title = "node categories vs Lemma-2 bounds";
  spec.claim = "Lemmas 1/2/21: NLT = O(n^0.8); Safe, Byz-safe = n - o(n)";
  spec.grid = {{"delta", {"0.5", "0.7"}}, pow2_axis(10, 14)};
  spec.base_trials = 1;
  spec.metrics = {"safe_frac_delta0.5", "safe_frac_delta0.7"};
  spec.run = run_e01;
  return spec;
}
