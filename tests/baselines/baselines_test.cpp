#include <gtest/gtest.h>

#include <cmath>

#include "baselines/birthday.hpp"
#include "baselines/flood_diameter.hpp"
#include "baselines/spanning_tree.hpp"
#include "baselines/support_estimation.hpp"
#include "graph/bfs.hpp"
#include "graph/hamiltonian.hpp"
#include "util/rng.hpp"

namespace byz::base {
namespace {

using graph::Graph;
using graph::NodeId;

Graph make_h(NodeId n, std::uint32_t d, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  return graph::simplify(graph::build_hamiltonian_graph(n, d, rng));
}

// ---------------------------------------------------------------- geometric

TEST(GeometricSupport, CleanEstimateInLogBand) {
  const NodeId n = 4096;
  const Graph h = make_h(n, 8, 1);
  const std::vector<bool> byz(n, false);
  const auto r = run_geometric_support(h, byz, FloodAttack::kNone, 100, 7);
  // §1.2: max is in [log n / 2, 2 log n] w.h.p. (log2 n = 12).
  for (const auto est : r.estimate) {
    EXPECT_GE(est, 6u);
    EXPECT_LE(est, 24u);
  }
  EXPECT_GT(r.rounds, 0u);
  EXPECT_GT(r.messages, 0u);
}

TEST(GeometricSupport, AllNodesAgreeOnMax) {
  const NodeId n = 512;
  const Graph h = make_h(n, 6, 2);
  const std::vector<bool> byz(n, false);
  const auto r = run_geometric_support(h, byz, FloodAttack::kNone, 100, 9);
  for (const auto est : r.estimate) EXPECT_EQ(est, r.estimate[0]);
}

TEST(GeometricSupport, SingleByzantineDestroysEveryEstimate) {
  // The paper's motivating failure: one inflating Byzantine node ruins all.
  const NodeId n = 512;
  const Graph h = make_h(n, 6, 3);
  std::vector<bool> byz(n, false);
  byz[100] = true;
  const auto r = run_geometric_support(h, byz, FloodAttack::kInflate, 100, 9);
  for (NodeId v = 0; v < n; ++v) {
    if (!byz[v]) {
      EXPECT_GE(r.estimate[v], 1u << 30);
    }
  }
}

TEST(GeometricSupport, SuppressionLeavesLocalMaxima) {
  const NodeId n = 512;
  const Graph h = make_h(n, 6, 4);
  std::vector<bool> byz(n, false);
  // A Byzantine belt cannot stop the flood on an expander (many disjoint
  // paths), but a suppressing byz node itself never forwards.
  byz[0] = true;
  const auto clean = run_geometric_support(h, byz, FloodAttack::kNone, 100, 11);
  const auto sup = run_geometric_support(h, byz, FloodAttack::kSuppress, 100, 11);
  // With one suppressor the flood still converges to the honest max.
  std::uint32_t honest_max = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (!byz[v]) honest_max = std::max(honest_max, sup.estimate[v]);
  }
  EXPECT_GT(honest_max, 0u);
  EXPECT_LE(honest_max, clean.estimate[0]);
}

// -------------------------------------------------------------- exponential

TEST(ExponentialSupport, CleanEstimateWithinFactorTwo) {
  const NodeId n = 1024;
  const Graph h = make_h(n, 8, 5);
  const std::vector<bool> byz(n, false);
  const auto r = run_exponential_support(h, byz, FloodAttack::kNone, 64, 100, 13);
  for (NodeId v = 0; v < n; v += 97) {
    EXPECT_GT(r.estimate[v], n / 2.0);
    EXPECT_LT(r.estimate[v], n * 2.0);
  }
}

TEST(ExponentialSupport, ByzantineInflatesUnboundedly) {
  const NodeId n = 512;
  const Graph h = make_h(n, 6, 6);
  std::vector<bool> byz(n, false);
  byz[7] = true;
  const auto r = run_exponential_support(h, byz, FloodAttack::kInflate, 16, 100, 13);
  for (NodeId v = 0; v < n; v += 31) {
    if (!byz[v]) {
      EXPECT_GT(r.estimate[v], 1e6);
    }
  }
}

TEST(ExponentialSupport, RejectsZeroSamples) {
  const Graph h = make_h(64, 6, 7);
  EXPECT_THROW(
      (void)run_exponential_support(h, std::vector<bool>(64, false),
                                    FloodAttack::kNone, 0, 10, 1),
      std::invalid_argument);
}

// ----------------------------------------------------------------- birthday

TEST(Birthday, CleanEstimateRightOrderOfMagnitude) {
  const NodeId n = 4096;
  const std::vector<bool> byz(n, false);
  // m = 8 sqrt(n) samples gives ~32 expected collisions: stable estimate.
  const auto r = run_birthday(n, byz, 8 * 64, 21);
  EXPECT_GT(r.estimate, n / 3.0);
  EXPECT_LT(r.estimate, n * 3.0);
}

TEST(Birthday, ByzantineCollisionsDeflateEstimate) {
  const NodeId n = 4096;
  std::vector<bool> byz(n, false);
  for (NodeId v = 0; v < 256; ++v) byz[v * 16] = true;  // 256 byz
  const auto clean = run_birthday(n, std::vector<bool>(n, false), 512, 23);
  const auto attacked = run_birthday(n, byz, 512, 23);
  EXPECT_LT(attacked.estimate, clean.estimate / 2.0);
}

TEST(Birthday, NoCollisionsMeansNoEstimate) {
  const std::vector<bool> byz(1u << 20, false);
  const auto r = run_birthday(1u << 20, byz, 8, 25);  // far below birthday bound
  EXPECT_EQ(r.estimate, 0.0);
}

// ------------------------------------------------------------ spanning tree

TEST(SpanningTree, ExactWhenHonest) {
  const NodeId n = 777;
  const Graph h = make_h(n, 6, 8);
  const std::vector<bool> byz(n, false);
  const auto r = run_spanning_tree_count(h, byz, 0, TreeAttack::kNone);
  EXPECT_EQ(r.root_count, n);
  EXPECT_GT(r.rounds, 0u);
}

TEST(SpanningTree, InflationAttackCorruptsRoot) {
  const NodeId n = 256;
  const Graph h = make_h(n, 6, 9);
  std::vector<bool> byz(n, false);
  byz[50] = true;
  const auto r = run_spanning_tree_count(h, byz, 0, TreeAttack::kInflate);
  EXPECT_GT(r.root_count, 1'000'000'000ULL);
}

TEST(SpanningTree, ZeroAttackHidesSubtree) {
  const NodeId n = 256;
  const Graph h = make_h(n, 6, 10);
  std::vector<bool> byz(n, false);
  byz[50] = true;
  const auto r = run_spanning_tree_count(h, byz, 0, TreeAttack::kZero);
  EXPECT_LT(r.root_count, n);
}

TEST(SpanningTree, BadRootThrows) {
  const Graph h = make_h(64, 6, 11);
  EXPECT_THROW((void)run_spanning_tree_count(h, std::vector<bool>(64, false),
                                             64, TreeAttack::kNone),
               std::out_of_range);
}

// ----------------------------------------------------------- flood diameter

TEST(FloodDiameter, HonestLeaderGivesDistances) {
  const NodeId n = 512;
  const Graph h = make_h(n, 8, 12);
  const std::vector<bool> byz(n, false);
  const auto r = run_flood_diameter(h, byz, 0, false, 100);
  for (NodeId v = 0; v < n; ++v) {
    EXPECT_NE(r.first_seen[v], graph::kUnreachable);
  }
  // First-seen = BFS distance; max should be ≈ log_{d-1} n.
  std::uint32_t ecc = 0;
  for (const auto f : r.first_seen) ecc = std::max(ecc, f);
  EXPECT_GE(ecc, 2u);
  EXPECT_LE(ecc, 8u);
}

TEST(FloodDiameter, ByzantineLeaderNeverStarts) {
  const NodeId n = 128;
  const Graph h = make_h(n, 6, 13);
  std::vector<bool> byz(n, false);
  byz[5] = true;
  const auto r = run_flood_diameter(h, byz, 5, false, 100);
  for (NodeId v = 0; v < n; ++v) {
    EXPECT_EQ(r.first_seen[v], graph::kUnreachable);
  }
}

TEST(FloodDiameter, SuppressionDelaysButExpanderRoutesAround) {
  const NodeId n = 1024;
  const Graph h = make_h(n, 8, 14);
  std::vector<bool> byz(n, false);
  util::Xoshiro256 rng(15);
  for (int i = 0; i < 32; ++i) byz[rng.below(n)] = true;
  const auto r = run_flood_diameter(h, byz, 0, true, 100);
  std::uint32_t reached = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (r.first_seen[v] != graph::kUnreachable) ++reached;
  }
  // Expansion: a 3% random blackhole cannot disconnect the flood.
  EXPECT_GT(reached, n * 9 / 10);
}

}  // namespace
}  // namespace byz::base
