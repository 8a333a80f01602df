// E3 — Small-world structure of G = H ∪ L (§2.1): adding the k-hop lattice
// edges raises the clustering coefficient by orders of magnitude while the
// diameter stays logarithmic (the expander part is untouched).
#include "bench_common.hpp"

namespace {

using namespace byz;
using namespace byz::bench;

struct Row {
  graph::NodeId n = 0;
  double ch = 0.0;
  double cg = 0.0;
  std::uint32_t diam = 0;
  bool diam_exact = true;
  double apl = 0.0;
  double avg_deg_g = 0.0;
};

void run_e03(RunContext& ctx) {
  const auto sizes = analysis::pow2_sizes(10, ctx.max_exp(14));

  const auto rows = ctx.scheduler().map(sizes.size(), [&](std::uint64_t i) {
    const auto n = sizes[i];
    const auto overlay =
        graph::Overlay::build({.n = n, .d = 8, .seed = 0xE3 + n});
    Row row;
    row.n = n;
    row.ch = graph::average_clustering(overlay.h_simple(),
                                       n > 8192 ? 2048 : 0, 0xE3);
    row.cg = graph::average_clustering(overlay.g(), 512, 0xE3);
    const auto diam = graph::diameter(overlay.h_simple(), 4096, 8, 0xE3);
    row.diam = diam.value;
    row.diam_exact = diam.exact;
    row.apl = graph::average_path_length(overlay.h_simple(), 8, 0xE3);
    row.avg_deg_g = 2.0 * static_cast<double>(overlay.g().num_edges()) / n;
    return row;
  });

  util::Table table("E3: small-world structure of G = H ∪ L (d=8, k=3)");
  table.columns({"n", "CC(H)", "CC(G)", "gain", "diam(H)", "log2n/log2(d-1)",
                 "APL(H)", "deg(G) avg"});
  std::vector<double> gains;
  for (const auto& row : rows) {
    table.row()
        .cell(std::uint64_t{row.n})
        .cell(row.ch, 5)
        .cell(row.cg, 4)
        .cell(row.cg / (row.ch > 0 ? row.ch : 1e-9), 1)
        .cell(std::string(std::to_string(row.diam)) +
              (row.diam_exact ? "" : "+"))
        .cell(lg(row.n) / lg(7.0), 2)
        .cell(row.apl, 2)
        .cell(row.avg_deg_g, 1);
    gains.push_back(row.cg / (row.ch > 0 ? row.ch : 1e-9));
  }
  table.note("Watts-Strogatz small-world signature: clustering gain of 10-100x "
             "over the random regular graph at unchanged O(log n) diameter. "
             "'+' marks double-sweep lower bounds (n > 4096).");
  ctx.emit(table);
  ctx.metric("clustering_gain", bench_core::quantiles_json(gains));
}

}  // namespace

BYZBENCH_REGISTER(e03) {
  ScenarioSpec spec;
  spec.id = "e03";
  spec.title = "small-world structure of G = H u L";
  spec.claim = "S2.1: L-edges raise clustering 10-100x at O(log n) diameter";
  spec.grid = {pow2_axis(10, 14)};
  spec.base_trials = 1;
  spec.metrics = {"clustering_gain"};
  spec.run = run_e03;
  return spec;
}
