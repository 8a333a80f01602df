#include "dynamics/churn_trace.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace byz::dynamics {

const char* to_string(ChurnModel model) {
  switch (model) {
    case ChurnModel::kSteady:
      return "steady";
    case ChurnModel::kBurst:
      return "burst";
    case ChurnModel::kSybilJoin:
      return "sybil-join";
  }
  return "?";
}

std::vector<ChurnModel> all_churn_models() {
  return {ChurnModel::kSteady, ChurnModel::kBurst, ChurnModel::kSybilJoin};
}

std::uint32_t poisson(util::Xoshiro256& rng, double mean) {
  if (!(mean > 0.0)) return 0;
  if (mean > 64.0) {
    // Normal approximation N(mean, mean): above this the error is far below
    // churn-model noise, and Knuth's product method would need ~mean
    // uniforms per draw (and underflows exp(-mean) past ~700).
    const double u1 = 1.0 - rng.uniform();  // (0, 1]: log stays finite
    const double u2 = rng.uniform();
    constexpr double kTwoPi = 6.283185307179586;
    const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(kTwoPi * u2);
    const double value = mean + std::sqrt(mean) * z;
    return value <= 0.0 ? 0u : static_cast<std::uint32_t>(value + 0.5);
  }
  const double limit = std::exp(-mean);
  std::uint32_t count = 0;
  double product = rng.uniform();
  while (product > limit) {
    ++count;
    product *= rng.uniform();
  }
  return count;
}

ChurnTrace generate_trace(const ChurnTraceParams& params) {
  if (params.n0 < kMinTraceNodes) {
    throw std::invalid_argument("generate_trace: need n0 >= " +
                                std::to_string(kMinTraceNodes));
  }
  ChurnTrace trace;
  trace.params = params;
  trace.epochs.reserve(params.epochs);

  util::Xoshiro256 rng(util::mix_seed(params.seed, 0xC4A1));
  const graph::NodeId floor_n = std::max<graph::NodeId>(params.min_n, 4);
  graph::NodeId n = params.n0;
  for (std::uint32_t e = 0; e < params.epochs; ++e) {
    ChurnEpoch epoch;
    epoch.joins = poisson(rng, params.arrival_rate);
    epoch.leaves = poisson(rng, params.departure_rate);
    if (e == params.burst_epoch) {
      const auto burst = static_cast<std::uint32_t>(
          params.burst_fraction * static_cast<double>(n));
      if (params.model == ChurnModel::kBurst) epoch.leaves += burst;
      if (params.model == ChurnModel::kSybilJoin) epoch.sybil_joins = burst;
    }
    const graph::NodeId after_joins = n + epoch.joins + epoch.sybil_joins;
    if (after_joins > floor_n) {
      epoch.leaves = std::min(
          epoch.leaves, static_cast<std::uint32_t>(after_joins - floor_n));
    } else {
      epoch.leaves = 0;
    }
    epoch.n_after = after_joins - epoch.leaves;
    n = epoch.n_after;
    trace.epochs.push_back(epoch);
  }
  return trace;
}

}  // namespace byz::dynamics
