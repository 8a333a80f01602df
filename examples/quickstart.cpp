// Quickstart: estimate the size of a small-world overlay that contains
// Byzantine nodes mounting a color-injection attack.
//
//   $ ./quickstart [--n=4096] [--d=8] [--delta=0.5] [--seed=1]
//
// Walks through the whole public API: sample the H(n,d) ∪ L overlay, place
// Byzantine nodes, pick an adversary, run Algorithm 2, and summarize how
// many honest nodes obtained a constant-factor estimate of log2(n).
#include <cmath>
#include <iostream>

#include "byzcount.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace byz;

  util::ArgParser args("quickstart", "Byzantine counting in one page");
  args.add_option("n", "network size", "4096");
  args.add_option("d", "H-degree (even, >= 4)", "8");
  args.add_option("delta", "Byzantine budget exponent: B = n^(1-delta)", "0.5");
  args.add_option("seed", "trial seed", "1");
  if (!args.parse(argc, argv)) return 0;

  const auto n = static_cast<graph::NodeId>(args.integer("n"));
  const auto d = static_cast<std::uint32_t>(args.integer("d"));
  const double delta = args.real("delta");
  const std::uint64_t seed = static_cast<std::uint64_t>(args.integer("seed"));

  // 1. Sample the network model of the paper: H(n,d) (expander) plus the
  //    k-hop lattice edges L (clustering). Nodes know only their channels.
  graph::OverlayParams params;
  params.n = n;
  params.d = d;
  params.seed = seed;
  const auto overlay = graph::Overlay::build(params);
  BYZ_INFO << "overlay: n=" << n << " d=" << d << " k=" << overlay.k()
           << " |E(H)|=" << overlay.h().num_edges()
           << " |E(G)|=" << overlay.g().num_edges();

  // 2. Place B = n^(1-delta) Byzantine nodes uniformly at random (the
  //    paper's placement model) and arm them with the fake-color attack.
  util::Xoshiro256 placement(seed ^ 0xB12);
  const auto byz_count = sim::derive_byz_count(n, delta);
  const auto byz = graph::random_byzantine_mask(n, byz_count, placement);
  const auto strategy = adv::make_strategy(adv::StrategyKind::kFakeColor);
  BYZ_INFO << "byzantine: " << byz_count << " nodes (delta="
           << util::format_double(delta, 2)
           << "), strategy=" << strategy->name();

  // 3. Run Algorithm 2.
  proto::ProtocolConfig cfg;  // defaults: eps=0.1, verification+crash rule on
  const auto result =
      proto::run_counting(overlay, byz, *strategy, cfg, seed ^ 0xC01);

  // 4. Verdict, Theorem-1 style.
  const auto acc = proto::summarize_accuracy(result, n);
  util::Table table("Byzantine counting verdict (truth: log2 n = " +
                    util::format_double(std::log2(static_cast<double>(n)), 2) +
                    ")");
  table.columns({"metric", "value"});
  table.row().cell("honest nodes").cell(acc.honest);
  table.row().cell("decided").cell(acc.decided);
  table.row().cell("crashed").cell(acc.crashed);
  table.row().cell("undecided").cell(acc.undecided);
  table.row().cell("estimate/log2(n) mean").cell(acc.mean_ratio, 3);
  table.row().cell("estimate/log2(n) min..max").cell(
      util::format_double(acc.min_ratio, 3) + " .. " +
      util::format_double(acc.max_ratio, 3));
  table.row().cell("fraction with constant-factor estimate")
      .cell(acc.frac_in_band, 4);
  table.row().cell("protocol rounds").cell(result.flood_rounds);
  table.row().cell("injections caught by verification")
      .cell(result.instr.injections_caught);
  table.note("Theorem 1: all but an eps-fraction of honest nodes end with a "
             "constant-factor estimate of log n.");
  std::cout << table;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    BYZ_ERROR << "quickstart: " << e.what();
    return 2;
  }
}
