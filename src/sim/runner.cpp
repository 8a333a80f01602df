#include "sim/runner.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "graph/categories.hpp"
#include "util/rng.hpp"

namespace byz::sim {

graph::NodeId derive_byz_count(graph::NodeId n, double delta) {
  if (!std::isfinite(delta) || delta < 0.0 || delta > 1.0) {
    std::ostringstream got;
    got << delta;
    throw std::invalid_argument("delta must be in [0, 1], got " + got.str());
  }
  const double b = std::pow(static_cast<double>(n), 1.0 - delta);
  return static_cast<graph::NodeId>(std::min<double>(std::floor(b),
                                                     static_cast<double>(n) / 4.0));
}

TrialResult run_trial(const TrialConfig& cfg) {
  graph::OverlayParams params = cfg.overlay;
  params.seed = util::mix_seed(cfg.seed, 0x0EE1);
  const auto overlay = graph::Overlay::build(params);

  const graph::NodeId n = overlay.num_nodes();
  const graph::NodeId b = cfg.byz_count >= 0
                              ? static_cast<graph::NodeId>(cfg.byz_count)
                              : derive_byz_count(n, cfg.delta);
  util::Xoshiro256 placement_rng(util::mix_seed(cfg.seed, 0x0B12));
  const auto byz = graph::random_byzantine_mask(n, b, placement_rng);

  const auto strategy = adv::make_strategy(cfg.strategy);
  TrialResult result;
  result.byz_count = b;
  result.run = proto::run_counting(overlay, byz, *strategy, cfg.protocol,
                                   util::mix_seed(cfg.seed, 0x0C01));
  result.accuracy = proto::summarize_accuracy(result.run, n);
  return result;
}

}  // namespace byz::sim
