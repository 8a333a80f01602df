#include "graph/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "graph/hamiltonian.hpp"
#include "graph/small_world.hpp"
#include "util/rng.hpp"

namespace byz::graph {
namespace {

Graph complete_graph(NodeId n) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) edges.emplace_back(u, v);
  }
  return Graph::from_edges(n, edges, true);
}

Graph cycle_graph(NodeId n) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 0; v < n; ++v) edges.emplace_back(v, (v + 1) % n);
  return Graph::from_edges(n, edges, true);
}

TEST(Clustering, CompleteGraphIsOne) {
  EXPECT_DOUBLE_EQ(average_clustering(complete_graph(8), 0, 1), 1.0);
}

TEST(Clustering, CycleIsZero) {
  EXPECT_DOUBLE_EQ(average_clustering(cycle_graph(10), 0, 1), 0.0);
}

TEST(Clustering, TriangleWithPendantKnownValue) {
  // Triangle {0,1,2} plus pendant 3 attached to 0.
  const std::vector<std::pair<NodeId, NodeId>> edges{{0, 1}, {1, 2}, {2, 0}, {0, 3}};
  const Graph g = Graph::from_edges(4, edges, true);
  // c(0) = 1/3 (one edge among 3 neighbor-pairs), c(1)=c(2)=1, c(3)=0.
  EXPECT_NEAR(average_clustering(g, 0, 1), (1.0 / 3.0 + 1.0 + 1.0 + 0.0) / 4.0,
              1e-12);
}

TEST(Clustering, RandomRegularIsLow) {
  util::Xoshiro256 rng(3);
  const Graph h = simplify(build_hamiltonian_graph(2048, 8, rng));
  EXPECT_LT(average_clustering(h, 0, 1), 0.02);
}

TEST(Clustering, SmallWorldGIsHigh) {
  // The whole point of L: G's clustering must dwarf H's (§2.1).
  OverlayParams p;
  p.n = 2048;
  p.d = 8;
  p.seed = 5;
  const Overlay o = Overlay::build(p);
  const double ch = average_clustering(o.h_simple(), 0, 1);
  const double cg = average_clustering(o.g(), 256, 7);
  EXPECT_GT(cg, 10.0 * ch);
  EXPECT_GT(cg, 0.15);
}

TEST(Clustering, SampledCloseToExact) {
  util::Xoshiro256 rng(9);
  const Graph h = simplify(build_hamiltonian_graph(1024, 6, rng));
  const double exact = average_clustering(h, 0, 1);
  const double sampled = average_clustering(h, 512, 99);
  EXPECT_NEAR(sampled, exact, 0.05);
}

TEST(Diameter, CycleExact) {
  const DiameterResult r = diameter(cycle_graph(10));
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.value, 5u);
}

TEST(Diameter, CompleteGraphIsOne) {
  const DiameterResult r = diameter(complete_graph(6));
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.value, 1u);
}

TEST(Diameter, DoubleSweepLowerBoundsExact) {
  const Graph g = cycle_graph(600);
  const DiameterResult approx = diameter(g, /*exact_threshold=*/32, 4, 7);
  EXPECT_FALSE(approx.exact);
  EXPECT_LE(approx.value, 300u);
  EXPECT_GE(approx.value, 250u);  // double sweep is near-tight on a cycle
}

TEST(Diameter, RandomRegularLogarithmic) {
  util::Xoshiro256 rng(11);
  const Graph h = simplify(build_hamiltonian_graph(1024, 8, rng));
  const DiameterResult r = diameter(h);
  EXPECT_TRUE(r.exact);
  // log_7(1024) ≈ 3.6; diameter of the random regular graph is typically
  // within +2 of that.
  EXPECT_GE(r.value, 3u);
  EXPECT_LE(r.value, 7u);
}

TEST(AveragePathLength, CycleKnownValue) {
  // Mean distance on an even n-cycle = n^2/4 / (n-1).
  const Graph g = cycle_graph(8);
  const double apl = average_path_length(g, 8, 1);
  EXPECT_NEAR(apl, 16.0 / 7.0, 1e-9);
}

TEST(AveragePathLength, SmallerOnDenserGraph) {
  util::Xoshiro256 rng(13);
  const Graph sparse = simplify(build_hamiltonian_graph(512, 4, rng));
  const Graph dense = simplify(build_hamiltonian_graph(512, 12, rng));
  EXPECT_LT(average_path_length(dense, 16, 3),
            average_path_length(sparse, 16, 3));
}

}  // namespace
}  // namespace byz::graph
