// Parameterized property sweep for the flood kernel: on every sampled
// world, one subphase of max-flooding must reproduce ground-truth BFS ball
// maxima, and the k_t bookkeeping must match a brute-force reference that
// recomputes per-round boundary maxima from distances.
#include <gtest/gtest.h>

#include <algorithm>

#include "graph/bfs.hpp"
#include "protocols/flooding.hpp"
#include "util/rng.hpp"

namespace byz::proto {
namespace {

using graph::NodeId;
using graph::Overlay;
using graph::OverlayParams;

struct Param {
  NodeId n;
  std::uint32_t d;
  std::uint32_t steps;
  std::uint64_t seed;
};

class FloodProperty : public ::testing::TestWithParam<Param> {};

TEST_P(FloodProperty, MatchesBruteForceBallMaxima) {
  const Param p = GetParam();
  OverlayParams op;
  op.n = p.n;
  op.d = p.d;
  op.seed = p.seed;
  const Overlay overlay = Overlay::build(op);
  const std::vector<bool> byz(p.n, false);
  const std::vector<bool> crashed(p.n, false);
  const Verifier verifier(overlay, byz, {});

  std::vector<Color> gen(p.n);
  util::Xoshiro256 rng(p.seed ^ 0xF10);
  for (auto& c : gen) c = util::geometric_color(rng);

  FloodWorkspace ws;
  sim::Instrumentation instr;
  FloodParams params;
  params.steps = p.steps;
  run_flood_subphase(overlay, byz, crashed, verifier, params, gen, {}, ws,
                     instr);

  // Brute force from a sample of nodes: known == max over B(v, steps);
  // last_step matches the "fresh boundary max" semantics: the max color at
  // distance exactly `steps` if it exceeds everything nearer AND whatever
  // re-broadcasts reach v in the final round.
  for (NodeId v = 0; v < p.n; v += std::max<NodeId>(1, p.n / 64)) {
    const auto dist = graph::bfs_distances(overlay.h_simple(), v, p.steps);
    Color ball_max = gen[v];
    Color interior_max = 0;  // strictly inside (dist < steps), excluding v
    Color boundary_max = 0;
    for (NodeId w = 0; w < p.n; ++w) {
      if (w == v || dist[w] == graph::kUnreachable) continue;
      if (dist[w] <= p.steps) ball_max = std::max(ball_max, gen[w]);
      if (dist[w] < p.steps) interior_max = std::max(interior_max, gen[w]);
      if (dist[w] == p.steps) boundary_max = std::max(boundary_max, gen[w]);
    }
    EXPECT_EQ(ws.known[v], ball_max) << "v=" << v;
    // The firing predicate's ingredients: if the boundary strictly exceeds
    // the interior (and own color), the last step must deliver it fresh.
    if (boundary_max > std::max(interior_max, gen[v])) {
      EXPECT_EQ(ws.last_step[v], boundary_max) << "v=" << v;
      EXPECT_GT(ws.last_step[v], ws.best_before[v]) << "v=" << v;
    }
  }
}

TEST_P(FloodProperty, MessageCountBoundedByForwardOnce) {
  const Param p = GetParam();
  OverlayParams op;
  op.n = p.n;
  op.d = p.d;
  op.seed = p.seed;
  const Overlay overlay = Overlay::build(op);
  const std::vector<bool> byz(p.n, false);
  const std::vector<bool> crashed(p.n, false);
  const Verifier verifier(overlay, byz, {});
  std::vector<Color> gen(p.n);
  util::Xoshiro256 rng(p.seed ^ 0xF11);
  for (auto& c : gen) c = util::geometric_color(rng);
  FloodWorkspace ws;
  sim::Instrumentation instr;
  FloodParams params;
  params.steps = p.steps;
  run_flood_subphase(overlay, byz, crashed, verifier, params, gen, {}, ws,
                     instr);
  // Forward-once: every node broadcasts at most once per improvement, and
  // improvements are bounded by steps; a generous uniform bound is
  // (steps) * 2|E|, and a tight one for step 1 is exactly 2|E|.
  EXPECT_LE(instr.token_messages,
            static_cast<std::uint64_t>(p.steps) *
                overlay.h_simple().num_slots());
  EXPECT_GE(instr.token_messages, overlay.h_simple().num_slots());
  EXPECT_EQ(instr.flood_rounds, p.steps);
}

INSTANTIATE_TEST_SUITE_P(
    Worlds, FloodProperty,
    ::testing::Values(Param{128, 4, 2, 1}, Param{256, 6, 3, 2},
                      Param{512, 8, 2, 3}, Param{512, 6, 4, 4},
                      Param{1024, 8, 3, 5}, Param{300, 6, 5, 6},
                      Param{2048, 6, 3, 7}, Param{777, 8, 4, 8}),
    [](const ::testing::TestParamInfo<Param>& info) {
      std::string name = "n";
      name += std::to_string(info.param.n);
      name += "_d";
      name += std::to_string(info.param.d);
      name += "_t";
      name += std::to_string(info.param.steps);
      name += "_s";
      name += std::to_string(info.param.seed);
      return name;
    });

}  // namespace
}  // namespace byz::proto
