// Adversary lab: shows how to implement a CUSTOM adversary strategy against
// Algorithm 2 by subclassing adv::Strategy, and pits it against the
// built-in ones on the same overlay.
//
// The custom "sleeper" adversary behaves perfectly honestly through the
// early phases (building no suspicion), then switches to last-step color
// injection exactly when phases get long enough to matter. Because it has
// full information it even conditions on the honest nodes' FUTURE coin
// flips: it only bothers attacking subphases whose honest maximum would
// otherwise be unremarkable.
//
//   $ ./adversary_lab [--n=4096] [--d=8] [--delta=0.6] [--seed=7]
#include <algorithm>
#include <cmath>
#include <iostream>

#include "byzcount.hpp"

namespace {

using namespace byz;

/// Honest until `wake_phase`, then injects just-above-threshold colors at
/// the final step — the least conspicuous effective value, chosen using
/// full knowledge of the honest coin table.
class SleeperStrategy final : public adv::Strategy {
 public:
  explicit SleeperStrategy(std::uint32_t wake_phase, std::uint32_t d)
      : wake_phase_(wake_phase), d_(d) {}

  [[nodiscard]] std::string_view name() const override { return "sleeper"; }
  [[nodiscard]] bool generates_honestly() const override { return true; }

  void plan_subphase(const sim::World& world, const adv::SubphaseRef& ref,
                     std::vector<proto::Injection>& out) override {
    if (ref.phase < wake_phase_) return;  // lie low
    // Full information: find the highest color any honest node will draw
    // this subphase, and top it by exactly one.
    proto::Color honest_max = 0;
    for (graph::NodeId v = 0; v < world.true_n; ++v) {
      if (!world.is_byz(v)) {
        honest_max = std::max(honest_max, world.color(v, ref.global_index));
      }
    }
    const auto threshold = static_cast<proto::Color>(
        std::ceil(proto::continue_threshold(ref.phase, d_)));
    const proto::Color value = std::max(honest_max, threshold) + 1;
    for (const graph::NodeId b : world.byz_nodes) {
      out.push_back({b, ref.phase, value});
    }
  }

 private:
  std::uint32_t wake_phase_;
  std::uint32_t d_;
};

int run(int argc, char** argv) {
  util::ArgParser args("adversary_lab", "plug in a custom adversary");
  args.add_option("n", "network size", "4096");
  args.add_option("d", "H-degree", "8");
  args.add_option("delta", "Byzantine exponent", "0.6");
  args.add_option("seed", "trial seed", "7");
  if (!args.parse(argc, argv)) return 0;

  const auto n = static_cast<graph::NodeId>(args.integer("n"));
  const auto d = static_cast<std::uint32_t>(args.integer("d"));
  const double delta = args.real("delta");
  const auto seed = static_cast<std::uint64_t>(args.integer("seed"));

  graph::OverlayParams params;
  params.n = n;
  params.d = d;
  params.seed = seed;
  const auto overlay = graph::Overlay::build(params);
  util::Xoshiro256 rng(seed ^ 0xB12);
  const auto byz =
      graph::random_byzantine_mask(n, sim::derive_byz_count(n, delta), rng);

  util::Table table("Adversary lab: n=" + std::to_string(n) + ", B=" +
                    std::to_string(sim::derive_byz_count(n, delta)));
  table.columns({"adversary", "in-band frac", "mean est/log2n", "crashed",
                 "undecided", "injections caught"});

  auto report = [&](adv::Strategy& strategy) {
    proto::ProtocolConfig cfg;
    const auto run =
        proto::run_counting(overlay, byz, strategy, cfg, seed ^ 0xC01);
    const auto acc = proto::summarize_accuracy(run, n);
    table.row()
        .cell(std::string(strategy.name()))
        .cell(acc.frac_in_band, 4)
        .cell(acc.mean_ratio, 3)
        .cell(acc.crashed)
        .cell(acc.undecided)
        .cell(run.instr.injections_caught);
  };

  for (const auto kind : adv::all_strategies()) {
    const auto strategy = adv::make_strategy(kind);
    report(*strategy);
  }
  SleeperStrategy sleeper(/*wake_phase=*/3, d);
  report(sleeper);

  table.note("The sleeper's last-step injections still need a Byzantine "
             "chain of length min(step, k) — Lemma 16 does not care when "
             "the adversary wakes up.");
  std::cout << table;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    BYZ_ERROR << "adversary_lab: " << e.what();
    return 2;
  }
}
