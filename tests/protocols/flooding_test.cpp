#include "protocols/flooding.hpp"

#include <gtest/gtest.h>

#include "graph/bfs.hpp"
#include "util/rng.hpp"

namespace byz::proto {
namespace {

using graph::NodeId;
using graph::Overlay;
using graph::OverlayParams;

Overlay sample(NodeId n = 256, std::uint32_t d = 6, std::uint64_t seed = 111) {
  OverlayParams p;
  p.n = n;
  p.d = d;
  p.seed = seed;
  return Overlay::build(p);
}

struct Fixture {
  Fixture() = default;
  // The Verifier views this fixture's overlay, so a copy would read the
  // original's ball counts.
  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;

  Overlay overlay = sample();
  std::vector<bool> byz = std::vector<bool>(overlay.num_nodes(), false);
  std::vector<bool> crashed = std::vector<bool>(overlay.num_nodes(), false);
  Verifier verifier{overlay, byz, {}};
  FloodWorkspace ws;
  sim::Instrumentation instr;
};

TEST(Flooding, KnownMaxEqualsBallMax) {
  // After i steps of max-flooding, each node's running max must equal the
  // max generated color over its i-ball (the analysis' c^max_{B(v,i)}).
  Fixture f;
  const NodeId n = f.overlay.num_nodes();
  std::vector<Color> gen(n);
  util::Xoshiro256 rng(1);
  for (auto& c : gen) c = util::geometric_color(rng);

  FloodParams params;
  params.steps = 3;
  run_flood_subphase(f.overlay, f.byz, f.crashed, f.verifier, params, gen, {},
                     f.ws, f.instr);
  for (NodeId v = 0; v < n; ++v) {
    const auto dist = graph::bfs_distances(f.overlay.h_simple(), v, 3);
    Color want = 0;
    for (NodeId w = 0; w < n; ++w) {
      if (dist[w] <= 3) want = std::max(want, gen[w]);
    }
    EXPECT_EQ(f.ws.known[v], want) << "v=" << v;
  }
}

TEST(Flooding, LastStepIsBoundaryContribution) {
  // Give exactly one node a standout color; every node at distance exactly
  // `steps` sees it in the last step; closer nodes see it earlier.
  Fixture f;
  const NodeId n = f.overlay.num_nodes();
  std::vector<Color> gen(n, 1);
  gen[0] = 100;
  FloodParams params;
  params.steps = 2;
  run_flood_subphase(f.overlay, f.byz, f.crashed, f.verifier, params, gen, {},
                     f.ws, f.instr);
  const auto dist = graph::bfs_distances(f.overlay.h_simple(), 0);
  for (NodeId v = 1; v < n; ++v) {
    if (dist[v] == 2) {
      EXPECT_EQ(f.ws.last_step[v], 100u);
      EXPECT_LT(f.ws.best_before[v], 100u);
    } else if (dist[v] == 1) {
      EXPECT_EQ(f.ws.best_before[v], 100u);
    }
  }
}

TEST(Flooding, CrashedNodesSilent) {
  Fixture f;
  const NodeId n = f.overlay.num_nodes();
  std::vector<Color> gen(n, 1);
  gen[0] = 50;
  // Crash the entire 1-ball around node 0 except node 0 itself: the color
  // cannot escape.
  for (const NodeId w : f.overlay.h_simple().neighbors(0)) f.crashed[w] = true;
  FloodParams params;
  params.steps = 3;
  run_flood_subphase(f.overlay, f.byz, f.crashed, f.verifier, params, gen, {},
                     f.ws, f.instr);
  const auto dist = graph::bfs_distances(f.overlay.h_simple(), 0);
  for (NodeId v = 0; v < n; ++v) {
    if (v != 0 && !f.crashed[v] && dist[v] >= 2) {
      EXPECT_LT(f.ws.known[v], 50u) << "v=" << v;
    }
  }
}

TEST(Flooding, SuppressingByzantineBlocksForwarding) {
  Fixture f;
  const NodeId n = f.overlay.num_nodes();
  // Make node 0's entire H-neighborhood Byzantine and non-forwarding.
  for (const NodeId w : f.overlay.h_simple().neighbors(0)) f.byz[w] = true;
  f.verifier = Verifier(f.overlay, f.byz, {});
  std::vector<Color> gen(n, 1);
  gen[0] = 77;
  FloodParams params;
  params.steps = 4;
  params.byz_forward = false;
  run_flood_subphase(f.overlay, f.byz, f.crashed, f.verifier, params, gen, {},
                     f.ws, f.instr);
  const auto dist = graph::bfs_distances(f.overlay.h_simple(), 0);
  for (NodeId v = 0; v < n; ++v) {
    if (!f.byz[v] && v != 0 && dist[v] >= 2) {
      EXPECT_LT(f.ws.known[v], 77u);
    }
  }
}

TEST(Flooding, InjectionAtStepOneFloodsFreely) {
  Fixture f;
  const NodeId n = f.overlay.num_nodes();
  f.byz[5] = true;
  f.verifier = Verifier(f.overlay, f.byz, {});
  std::vector<Color> gen(n, 1);
  const std::vector<Injection> inj{{5, 1, 500}};
  FloodParams params;
  params.steps = 4;
  run_flood_subphase(f.overlay, f.byz, f.crashed, f.verifier, params, gen, inj,
                     f.ws, f.instr);
  const auto dist = graph::bfs_distances(f.overlay.h_simple(), 5);
  for (NodeId v = 0; v < n; ++v) {
    if (!f.byz[v] && dist[v] >= 1 && dist[v] <= 4) {
      EXPECT_EQ(f.ws.known[v], 500u) << "v=" << v << " dist=" << dist[v];
    }
  }
  EXPECT_GT(f.instr.injections_accepted, 0u);
}

TEST(Flooding, LateInjectionWithoutChainGoesNowhere) {
  Fixture f;
  const NodeId n = f.overlay.num_nodes();
  f.byz[5] = true;
  f.verifier = Verifier(f.overlay, f.byz, {});
  std::vector<Color> gen(n, 1);
  const std::vector<Injection> inj{{5, 4, 500}};  // step 4 > k-1
  FloodParams params;
  params.steps = 4;
  run_flood_subphase(f.overlay, f.byz, f.crashed, f.verifier, params, gen, inj,
                     f.ws, f.instr);
  for (NodeId v = 0; v < n; ++v) {
    if (!f.byz[v]) {
      EXPECT_LT(f.ws.known[v], 500u);
    }
  }
  EXPECT_GT(f.instr.injections_caught, 0u);
  EXPECT_EQ(f.instr.injections_accepted, 0u);
}

TEST(Flooding, TokenAccountingMatchesDegrees) {
  Fixture f;
  const NodeId n = f.overlay.num_nodes();
  std::vector<Color> gen(n, 0);
  gen[0] = 9;  // single generator
  FloodParams params;
  params.steps = 1;
  run_flood_subphase(f.overlay, f.byz, f.crashed, f.verifier, params, gen, {},
                     f.ws, f.instr);
  EXPECT_EQ(f.instr.token_messages, f.overlay.h_simple().degree(0));
  EXPECT_EQ(f.instr.flood_rounds, 1u);
}

TEST(Flooding, ForwardOnceNoRebroadcastOfOldValues) {
  // With a single generator, total token messages over i steps are bounded
  // by sum over the frontier (each node broadcasts at most once).
  Fixture f;
  const NodeId n = f.overlay.num_nodes();
  std::vector<Color> gen(n, 0);
  gen[0] = 9;
  FloodParams params;
  params.steps = 5;
  run_flood_subphase(f.overlay, f.byz, f.crashed, f.verifier, params, gen, {},
                     f.ws, f.instr);
  // Each node broadcasts at most once => messages <= sum of degrees = 2m.
  EXPECT_LE(f.instr.token_messages, f.overlay.h_simple().num_slots());
}

TEST(Flooding, WorkspaceReusableAcrossSubphases) {
  Fixture f;
  const NodeId n = f.overlay.num_nodes();
  std::vector<Color> gen(n, 2);
  FloodParams params;
  params.steps = 2;
  run_flood_subphase(f.overlay, f.byz, f.crashed, f.verifier, params, gen, {},
                     f.ws, f.instr);
  const auto known_first = f.ws.known;
  run_flood_subphase(f.overlay, f.byz, f.crashed, f.verifier, params, gen, {},
                     f.ws, f.instr);
  EXPECT_EQ(f.ws.known, known_first);  // identical inputs, identical outputs
}

TEST(Flooding, SizeMismatchThrows) {
  Fixture f;
  std::vector<Color> gen(3, 1);  // wrong size
  FloodParams params;
  EXPECT_THROW(run_flood_subphase(f.overlay, f.byz, f.crashed, f.verifier,
                                  params, gen, {}, f.ws, f.instr),
               std::invalid_argument);
}

}  // namespace
}  // namespace byz::proto
