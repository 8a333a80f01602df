#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace byz::graph {
namespace {

using Edge = std::pair<NodeId, NodeId>;

TEST(Graph, EmptyGraph) {
  const Graph g = Graph::from_edges(0, {}, true);
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.max_degree(), 0u);
  EXPECT_EQ(g.min_degree(), 0u);
}

TEST(Graph, TriangleBasics) {
  const std::vector<Edge> edges{{0, 1}, {1, 2}, {2, 0}};
  const Graph g = Graph::from_edges(3, edges, true);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.is_regular(2));
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 0));
}

TEST(Graph, NeighborsSorted) {
  const std::vector<Edge> edges{{0, 3}, {0, 1}, {0, 2}};
  const Graph g = Graph::from_edges(4, edges, true);
  const auto nbrs = g.neighbors(0);
  ASSERT_EQ(nbrs.size(), 3u);
  EXPECT_EQ(nbrs[0], 1u);
  EXPECT_EQ(nbrs[1], 2u);
  EXPECT_EQ(nbrs[2], 3u);
}

TEST(Graph, MultigraphKeepsParallelEdges) {
  const std::vector<Edge> edges{{0, 1}, {0, 1}, {1, 2}};
  const Graph g = Graph::from_edges(3, edges, false);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(1), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
}

TEST(Graph, DedupRemovesParallelEdgesAndLoops) {
  const std::vector<Edge> edges{{0, 1}, {0, 1}, {1, 1}, {1, 2}};
  const Graph g = Graph::from_edges(3, edges, true);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 2u);  // {0, 2}
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_FALSE(g.has_edge(1, 1));
}

TEST(Graph, SelfLoopKeptInMultigraphMode) {
  const std::vector<Edge> edges{{0, 0}};
  const Graph g = Graph::from_edges(1, edges, false);
  EXPECT_EQ(g.degree(0), 2u);  // both endpoints land on node 0
}

TEST(Graph, OutOfRangeEdgeThrows) {
  const std::vector<Edge> edges{{0, 5}};
  EXPECT_THROW((void)Graph::from_edges(3, edges, true), std::out_of_range);
}

TEST(Graph, DegreeBounds) {
  const std::vector<Edge> edges{{0, 1}, {0, 2}, {0, 3}};
  const Graph g = Graph::from_edges(5, edges, true);
  EXPECT_EQ(g.max_degree(), 3u);
  EXPECT_EQ(g.min_degree(), 0u);  // node 4 isolated
  EXPECT_FALSE(g.is_regular(1));
}

TEST(Graph, MemoryBytesPositive) {
  const std::vector<Edge> edges{{0, 1}};
  const Graph g = Graph::from_edges(2, edges, true);
  EXPECT_GT(g.memory_bytes(), 0u);
}

}  // namespace
}  // namespace byz::graph
