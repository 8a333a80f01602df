// Churn traces: the per-epoch join/leave workload an evolving deployment
// sees, generated up front so every component (epoch driver, scenarios,
// tests) replays the identical sequence. Generation is a pure function of
// the params (SplitMix64-derived stream), so traces are bitwise
// reproducible for any --jobs value; WHICH node departs and WHERE a joiner
// splices are replay-time decisions (adv::ChurnAdversary), keeping the
// trace itself topology-free.
//
// Trace format (also the BENCH manifest vocabulary): one ChurnEpoch per
// epoch with
//   joins         honest arrivals (Poisson(arrival_rate))
//   sybil_joins   Byzantine arrivals (kSybilJoin burst epochs only)
//   leaves        departures (Poisson(departure_rate), plus the kBurst
//                 mass departure at burst_epoch), clamped so membership
//                 never drops below max(min_n, 4)
//   n_after       membership after applying joins first, then leaves
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace byz::dynamics {

enum class ChurnModel : std::uint8_t {
  kSteady,     ///< stationary Poisson arrivals and departures
  kBurst,      ///< steady plus a mass departure at burst_epoch
  kSybilJoin,  ///< steady plus a Byzantine join burst at burst_epoch
};

[[nodiscard]] const char* to_string(ChurnModel model);
[[nodiscard]] std::vector<ChurnModel> all_churn_models();

/// The smallest bootstrap membership generate_trace accepts.
inline constexpr graph::NodeId kMinTraceNodes = 4;

struct ChurnTraceParams {
  graph::NodeId n0 = 1024;        ///< bootstrap membership
  std::uint32_t epochs = 12;
  double arrival_rate = 8.0;      ///< mean honest joins per epoch
  double departure_rate = 8.0;    ///< mean departures per epoch
  ChurnModel model = ChurnModel::kSteady;
  std::uint32_t burst_epoch = 4;  ///< epoch index of the burst (0-based)
  double burst_fraction = 0.25;   ///< of current n: departures / sybil joins
  graph::NodeId min_n = 64;       ///< membership floor (>= 4 enforced)
  std::uint64_t seed = 1;         ///< trace stream seed
};

struct ChurnEpoch {
  std::uint32_t joins = 0;
  std::uint32_t sybil_joins = 0;
  std::uint32_t leaves = 0;
  graph::NodeId n_after = 0;

  bool operator==(const ChurnEpoch&) const = default;
};

struct ChurnTrace {
  ChurnTraceParams params;
  std::vector<ChurnEpoch> epochs;
};

/// Poisson variate: Knuth's product method for mean <= 64, the N(mean,
/// mean) normal approximation above (so large-network churn rates neither
/// underflow nor cost ~mean uniforms per draw). mean <= 0 returns 0.
[[nodiscard]] std::uint32_t poisson(util::Xoshiro256& rng, double mean);

/// Generates the trace; deterministic in params alone.
[[nodiscard]] ChurnTrace generate_trace(const ChurnTraceParams& params);

}  // namespace byz::dynamics
