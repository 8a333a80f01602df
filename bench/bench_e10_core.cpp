// E10 — Lemma 14: after the crash-maximizing attack, the surviving honest
// nodes' largest component (the Core) still contains n - o(n) nodes and
// remains an expander.
#include "bench_common.hpp"

namespace {

using namespace byz;
using namespace byz::bench;

void run_e10(RunContext& ctx) {
  const auto sizes = analysis::pow2_sizes(10, ctx.max_exp(14));
  const double deltas[] = {0.6, 0.7};

  struct Point {
    double delta;
    graph::NodeId n;
  };
  std::vector<Point> grid;
  for (const double delta : deltas) {
    for (const auto n : sizes) grid.push_back({delta, n});
  }
  // Both deltas attack the same overlays: build each size's once.
  const auto overlays = ctx.scheduler().map(sizes.size(), [&](std::uint64_t s) {
    return graph::Overlay::build(
        {.n = sizes[s], .d = 6, .seed = 0xEA + sizes[s]});
  });

  struct Cell {
    std::uint64_t crashed_count = 0;
    graph::NodeId core_n = 0;
    double mu2 = 0.0;
    double sweep = 0.0;
  };
  const auto cells = ctx.scheduler().map(grid.size(), [&](std::uint64_t i) {
    const auto [delta, n] = grid[i];
    const auto& overlay = overlays[i % sizes.size()];
    const auto byz = place_byz(n, delta, 0xEA + n);
    const auto strat = adv::make_strategy(adv::StrategyKind::kCrashMaximizer);
    const auto world = sim::World::make(overlay, byz, 0xCA);
    proto::ClaimSet claims(overlay);
    strat->setup_lies(world, claims);
    const auto crashed = proto::compute_crash_set(claims, byz, nullptr);

    // Uncrashed honest nodes; Core = largest component they induce in H.
    std::vector<bool> keep(n, false);
    Cell cell;
    for (graph::NodeId v = 0; v < n; ++v) {
      if (byz[v]) continue;
      if (crashed[v]) {
        ++cell.crashed_count;
      } else {
        keep[v] = true;
      }
    }
    const auto core_mask =
        graph::largest_component_mask(overlay.h_simple(), keep);
    const auto core = graph::induced_subgraph(overlay.h_simple(), core_mask);
    cell.core_n = core.num_nodes();
    if (cell.core_n > 2) {
      const auto spec = graph::second_eigenvalue(core, 1500, 1e-9, 0xEA);
      cell.mu2 = spec.mu2;
      cell.sweep = graph::sweep_cut_expansion(core, spec.vector2);
    }
    return cell;
  });

  util::Table table("E10: the Core after crash-maximizing lies (d=6)");
  table.columns({"n", "delta", "B", "crashed", "crashed %", "|Core|",
                 "core frac", "core lambda2/avgdeg", "core sweep-cut h"});
  std::vector<double> core_frac;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const auto [delta, n] = grid[i];
    const auto& cell = cells[i];
    table.row()
        .cell(std::uint64_t{n})
        .cell(delta, 1)
        .cell(std::uint64_t{sim::derive_byz_count(n, delta)})
        .cell(cell.crashed_count)
        .cell(100.0 * static_cast<double>(cell.crashed_count) / n, 2)
        .cell(std::uint64_t{cell.core_n})
        .cell(static_cast<double>(cell.core_n) / n, 4)
        .cell(cell.mu2, 3)
        .cell(cell.sweep, 3);
    core_frac.push_back(static_cast<double>(cell.core_n) / n);
  }
  table.note("Lemma 14: |Core| >= n - o(n) and Core keeps constant edge "
             "expansion. Crashed nodes are exactly the honest G-neighbors "
             "of Byzantine nodes, so crashed% shrinks like n^{-delta} * "
             "(d-1)^{k+1} as n grows.");
  ctx.emit(table);
  ctx.metric("core_frac", bench_core::quantiles_json(core_frac));
}

}  // namespace

BYZBENCH_REGISTER(e10) {
  ScenarioSpec spec;
  spec.id = "e10";
  spec.title = "the Core after crash-maximizing lies";
  spec.claim = "Lemma 14: |Core| = n - o(n) and stays an expander";
  spec.grid = {{"delta", {"0.6", "0.7"}}, pow2_axis(10, 14)};
  spec.base_trials = 1;
  spec.metrics = {"core_frac"};
  spec.run = run_e10;
  return spec;
}
