// Overlay census: the motivating scenario of the paper's introduction — a
// peer-to-peer overlay wants to know its own size, but some peers are
// malicious. Compares the classical estimators (which the paper shows are
// broken by a single Byzantine node) against Algorithm 2, on the same
// sampled overlay.
//
//   $ ./overlay_census [--n=8192] [--d=8] [--delta=0.6] [--seed=3]
#include <cmath>
#include <iostream>

#include "byzcount.hpp"

namespace {

using namespace byz;

/// Renders an estimate of log2(n) against the truth as "value (xN off)".
std::string grade(double est_log, double true_log) {
  if (est_log <= 0.0) return "no estimate";
  const double off = est_log / true_log;
  return util::format_double(est_log, 2) + "  (" +
         util::format_double(off, 2) + "x of log2 n)";
}

int run(int argc, char** argv) {
  util::ArgParser args("overlay_census",
                       "classical estimators vs Algorithm 2 under attack");
  args.add_option("n", "network size", "8192");
  args.add_option("d", "H-degree", "8");
  args.add_option("delta", "Byzantine exponent", "0.6");
  args.add_option("seed", "trial seed", "3");
  if (!args.parse(argc, argv)) return 0;

  const auto n = static_cast<graph::NodeId>(args.integer("n"));
  const auto d = static_cast<std::uint32_t>(args.integer("d"));
  const double delta = args.real("delta");
  const auto seed = static_cast<std::uint64_t>(args.integer("seed"));
  const double true_log = std::log2(static_cast<double>(n));

  graph::OverlayParams params;
  params.n = n;
  params.d = d;
  params.seed = seed;
  const auto overlay = graph::Overlay::build(params);
  util::Xoshiro256 rng(seed ^ 0xB12);
  const auto byz =
      graph::random_byzantine_mask(n, sim::derive_byz_count(n, delta), rng);

  util::Table table("Census of an overlay with " +
                    std::to_string(sim::derive_byz_count(n, delta)) +
                    " Byzantine peers (n=" + std::to_string(n) + ")");
  table.columns({"estimator", "clean network", "under attack", "verdict"});

  {  // Geometric max-flood (§1.2).
    const std::vector<bool> none(n, false);
    const auto clean =
        base::run_geometric_support(overlay.h_simple(), none,
                                    base::FloodAttack::kNone, 64, seed);
    const auto hit =
        base::run_geometric_support(overlay.h_simple(), byz,
                                    base::FloodAttack::kInflate, 64, seed);
    table.row()
        .cell("geometric max-flood")
        .cell(grade(clean.estimate[0], true_log))
        .cell(grade(hit.estimate[0], true_log))
        .cell("destroyed");
  }
  {  // Exponential support estimation.
    const std::vector<bool> none(n, false);
    const auto clean = base::run_exponential_support(
        overlay.h_simple(), none, base::FloodAttack::kNone, 32, 64, seed);
    const auto hit = base::run_exponential_support(
        overlay.h_simple(), byz, base::FloodAttack::kInflate, 32, 64, seed);
    table.row()
        .cell("exponential support")
        .cell(grade(std::log2(clean.estimate[0]), true_log))
        .cell(grade(std::log2(hit.estimate[0]), true_log))
        .cell("destroyed");
  }
  {  // Spanning-tree converge-cast.
    const std::vector<bool> none(n, false);
    const auto clean = base::run_spanning_tree_count(overlay.h_simple(), none,
                                                     0, base::TreeAttack::kNone);
    const auto hit = base::run_spanning_tree_count(
        overlay.h_simple(), byz, 0, base::TreeAttack::kInflate);
    table.row()
        .cell("spanning-tree count")
        .cell(grade(std::log2(static_cast<double>(clean.root_count)), true_log))
        .cell(grade(std::log2(static_cast<double>(hit.root_count)), true_log))
        .cell("destroyed");
  }
  {  // Algorithm 2 under the strongest combined attack.
    auto strategy = adv::make_strategy(adv::StrategyKind::kFakeColor);
    proto::ProtocolConfig cfg;
    const auto run =
        proto::run_counting(overlay, byz, *strategy, cfg, seed ^ 0xC01);
    const auto acc = proto::summarize_accuracy(run, n);
    // A clean reference run.
    const auto clean_run = proto::run_basic_counting(overlay, seed ^ 0xC02);
    const auto clean_acc = proto::summarize_accuracy(clean_run, n);
    table.row()
        .cell("Algorithm 2 (this paper)")
        .cell(util::format_double(clean_acc.mean_ratio, 2) + "x of log2 n")
        .cell(util::format_double(acc.mean_ratio, 2) + "x of log2 n, " +
              util::format_double(100.0 * acc.frac_in_band, 1) +
              "% of honest nodes in band")
        .cell("survives");
  }
  table.note("Attack: Byzantine peers inject an absurd maximum (or minimum) "
             "into each estimator; Algorithm 2 additionally faces its "
             "fake-color adversary.");
  std::cout << table;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    BYZ_ERROR << "overlay_census: " << e.what();
    return 2;
  }
}
