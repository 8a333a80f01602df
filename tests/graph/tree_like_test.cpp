#include "graph/tree_like.hpp"

#include <gtest/gtest.h>

#include "graph/hamiltonian.hpp"
#include "util/rng.hpp"

namespace byz::graph {
namespace {

TEST(TreeBallSize, ClosedForm) {
  EXPECT_EQ(tree_ball_size(3, 0), 1u);
  EXPECT_EQ(tree_ball_size(3, 1), 4u);
  EXPECT_EQ(tree_ball_size(3, 2), 10u);   // 1 + 3 + 6
  EXPECT_EQ(tree_ball_size(8, 1), 9u);
  EXPECT_EQ(tree_ball_size(8, 2), 65u);   // 1 + 8 + 56
  EXPECT_EQ(tree_ball_size(8, 3), 457u);  // + 392
}

TEST(TreeBallSize, RejectsSmallDegree) {
  EXPECT_THROW((void)tree_ball_size(2, 1), std::invalid_argument);
}

TEST(PaperLtlRadius, SubUnityAtPracticalSizes) {
  // The asymptotic radius log n / (10 log d) is < 1 for every practical n
  // (DESIGN.md §3.4) — pin that down so experiments document it honestly.
  EXPECT_LT(paper_ltl_radius(1 << 16, 8), 1.0);
  EXPECT_LT(paper_ltl_radius(1 << 20, 8), 1.0);
  EXPECT_GT(paper_ltl_radius(1ULL << 40, 8), 1.0);
}

TEST(TreeLike, PerfectTreeNodeDetected) {
  // Build an explicit 3-regular tree of depth 3 and close it up with a
  // matching on the leaves so the graph is 3-regular: the root must be LTL
  // at radius 2.
  // Depth-3 binary-ish tree: root 0 with 3 children; interior nodes have 2
  // children each.
  std::vector<std::pair<NodeId, NodeId>> edges;
  NodeId next = 1;
  std::vector<NodeId> level{0};
  std::vector<NodeId> leaves;
  for (int depth = 0; depth < 3; ++depth) {
    std::vector<NodeId> next_level;
    for (const NodeId u : level) {
      const int kids = (depth == 0) ? 3 : 2;
      for (int c = 0; c < kids; ++c) {
        edges.emplace_back(u, next);
        next_level.push_back(next);
        ++next;
      }
    }
    level = next_level;
  }
  leaves = level;  // 12 leaves, each with degree 1 so far
  // Pair up leaves from different subtrees to reach degree 3 (2 extra each).
  const NodeId n = next;
  for (std::size_t i = 0; i < leaves.size() / 2; ++i) {
    const NodeId a = leaves[i];
    const NodeId b = leaves[i + leaves.size() / 2];
    edges.emplace_back(a, b);
    edges.emplace_back(a, leaves[(i + 1) % (leaves.size() / 2)]);
    edges.emplace_back(b, leaves[leaves.size() / 2 +
                                 (i + 1) % (leaves.size() / 2)]);
  }
  const Graph g = Graph::from_edges(n, edges, false);
  const auto result = classify_tree_like(g, 3, 2);
  EXPECT_TRUE(result.is_tree_like[0]);
}

TEST(TreeLike, CycleNodeNotTreeLikeAtLargeRadius) {
  // On C_n (d=2 is below the d>=3 guard) use a 4-regular circulant where
  // radius-2 balls always collide: nodes are never tree-like at radius 2.
  const NodeId n = 32;
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 0; v < n; ++v) {
    edges.emplace_back(v, (v + 1) % n);
    edges.emplace_back(v, (v + 2) % n);
  }
  const Graph g = Graph::from_edges(n, edges, false);
  const auto result = classify_tree_like(g, 4, 2);
  EXPECT_EQ(result.count, 0u);
}

TEST(TreeLike, Lemma1MostNodesTreeLikeRadius1) {
  // Lemma 1/21: n - O(n^0.8) nodes are LTL. At radius 1 the only
  // obstructions are multi-edges and triangles through the node.
  util::Xoshiro256 rng(17);
  const NodeId n = 4096;
  const Graph h = build_hamiltonian_graph(n, 8, rng);
  const auto result = classify_tree_like(h, 8, 1);
  EXPECT_GT(result.count, n - 200u);
  EXPECT_EQ(result.radius, 1u);
}

TEST(TreeLike, Radius2StillDominant) {
  util::Xoshiro256 rng(19);
  const NodeId n = 8192;
  const Graph h = build_hamiltonian_graph(n, 8, rng);
  const auto r2 = classify_tree_like(h, 8, 2);
  EXPECT_GT(r2.count, n * 3 / 4);
  // Monotonicity: LTL at radius 2 implies LTL at radius 1.
  const auto r1 = classify_tree_like(h, 8, 1);
  for (NodeId v = 0; v < n; ++v) {
    if (r2.is_tree_like[v]) {
      EXPECT_TRUE(r1.is_tree_like[v]);
    }
  }
}

TEST(TreeLike, CountMatchesMask) {
  util::Xoshiro256 rng(23);
  const Graph h = build_hamiltonian_graph(512, 6, rng);
  const auto result = classify_tree_like(h, 6, 1);
  std::uint64_t manual = 0;
  for (const bool b : result.is_tree_like) manual += b ? 1 : 0;
  EXPECT_EQ(manual, result.count);
}

TEST(TreeLike, MultiEdgeBreaksTreeLikeness) {
  // Tiny n with large d guarantees parallel edges; affected nodes must not
  // be tree-like at radius 1.
  util::Xoshiro256 rng(29);
  const Graph h = build_hamiltonian_graph(6, 6, rng);
  const auto result = classify_tree_like(h, 6, 1);
  // With n=6 and d=6 every radius-1 ball covers most of the graph and tree
  // size 7 > 6 is impossible.
  EXPECT_EQ(result.count, 0u);
}

}  // namespace
}  // namespace byz::graph
