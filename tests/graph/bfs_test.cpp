#include "graph/bfs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "graph/hamiltonian.hpp"
#include "util/rng.hpp"

namespace byz::graph {
namespace {

/// Path graph 0-1-2-...-(n-1).
Graph path_graph(NodeId n) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 0; v + 1 < n; ++v) edges.emplace_back(v, v + 1);
  return Graph::from_edges(n, edges, true);
}

/// Cycle graph.
Graph cycle_graph(NodeId n) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 0; v < n; ++v) edges.emplace_back(v, (v + 1) % n);
  return Graph::from_edges(n, edges, true);
}

TEST(Bfs, PathDistances) {
  const Graph g = path_graph(5);
  const auto dist = bfs_distances(g, 0);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(dist[v], v);
}

TEST(Bfs, MaxDepthTruncates) {
  const Graph g = path_graph(10);
  const auto dist = bfs_distances(g, 0, 3);
  EXPECT_EQ(dist[3], 3u);
  EXPECT_EQ(dist[4], kUnreachable);
}

TEST(Bfs, DisconnectedUnreachable) {
  const Graph g = Graph::from_edges(4, std::vector<std::pair<NodeId, NodeId>>{{0, 1}}, true);
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], kUnreachable);
  EXPECT_EQ(dist[3], kUnreachable);
}

TEST(Bfs, BadSourceThrows) {
  const Graph g = path_graph(3);
  EXPECT_THROW((void)bfs_distances(g, 7), std::out_of_range);
}

TEST(BfsBall, ContainsExactlyTheBall) {
  const Graph g = cycle_graph(10);
  BfsScratch scratch;
  std::vector<BallEntry> ball;
  bfs_ball(g, 0, 2, scratch, ball);
  // Ball of radius 2 on a 10-cycle: {0,1,9,2,8}.
  ASSERT_EQ(ball.size(), 5u);
  EXPECT_EQ(ball[0].node, 0u);
  EXPECT_EQ(ball[0].dist, 0u);
  std::uint32_t at_two = 0;
  for (const auto& e : ball) {
    if (e.dist == 2) ++at_two;
  }
  EXPECT_EQ(at_two, 2u);
}

TEST(BfsBall, ScratchReusableAcrossCalls) {
  const Graph g = cycle_graph(12);
  BfsScratch scratch;
  std::vector<BallEntry> ball;
  bfs_ball(g, 0, 1, scratch, ball);
  EXPECT_EQ(ball.size(), 3u);
  bfs_ball(g, 6, 1, scratch, ball);
  EXPECT_EQ(ball.size(), 3u);
  EXPECT_EQ(ball[0].node, 6u);
}

TEST(BfsBall, RadiusZeroIsSelf) {
  const Graph g = cycle_graph(5);
  BfsScratch scratch;
  std::vector<BallEntry> ball;
  bfs_ball(g, 2, 0, scratch, ball);
  ASSERT_EQ(ball.size(), 1u);
  EXPECT_EQ(ball[0].node, 2u);
}

TEST(BfsBall, StopsWhenBallSaturates) {
  const Graph g = cycle_graph(6);
  BfsScratch scratch;
  std::vector<BallEntry> ball;
  bfs_ball(g, 0, 100, scratch, ball);  // radius >> diameter
  EXPECT_EQ(ball.size(), 6u);
}

TEST(MultiSource, NearestSourceWins) {
  const Graph g = path_graph(10);
  const std::vector<NodeId> sources{0, 9};
  const auto dist = multi_source_distances(g, sources);
  EXPECT_EQ(dist[0], 0u);
  EXPECT_EQ(dist[9], 0u);
  EXPECT_EQ(dist[4], 4u);
  EXPECT_EQ(dist[5], 4u);
}

TEST(MultiSource, EmptySourcesAllUnreachable) {
  const Graph g = path_graph(4);
  const auto dist = multi_source_distances(g, {});
  for (const auto dv : dist) EXPECT_EQ(dv, kUnreachable);
}

TEST(MultiSource, DepthCap) {
  const Graph g = path_graph(10);
  const std::vector<NodeId> sources{0};
  const auto dist = multi_source_distances(g, sources, 2);
  EXPECT_EQ(dist[2], 2u);
  EXPECT_EQ(dist[3], kUnreachable);
}

TEST(Eccentricity, PathEnds) {
  const Graph g = path_graph(7);
  EXPECT_EQ(eccentricity(g, 0), 6u);
  EXPECT_EQ(eccentricity(g, 3), 3u);
}

TEST(FarthestNode, PathGraph) {
  const Graph g = path_graph(7);
  const Farthest f = farthest_node(g, 0);
  EXPECT_EQ(f.node, 6u);
  EXPECT_EQ(f.dist, 6u);
}

TEST(FarthestNode, TieBreaksToSmallestId) {
  const Graph g = cycle_graph(6);
  const Farthest f = farthest_node(g, 0);
  EXPECT_EQ(f.dist, 3u);
  EXPECT_EQ(f.node, 3u);
}

TEST(Bfs, AgreesWithBallOnRandomRegular) {
  util::Xoshiro256 rng(21);
  const Graph h = simplify(build_hamiltonian_graph(200, 6, rng));
  const auto dist = bfs_distances(h, 17);
  BfsScratch scratch;
  std::vector<BallEntry> ball;
  bfs_ball(h, 17, 3, scratch, ball);
  std::uint32_t within3 = 0;
  for (const auto dv : dist) {
    if (dv <= 3) ++within3;
  }
  EXPECT_EQ(ball.size(), within3);
  for (const auto& e : ball) EXPECT_EQ(dist[e.node], e.dist);
}

/// Shuffles a ball with the test's own RNG (Fisher-Yates).
void shuffle(std::vector<BallEntry>& ball, util::Xoshiro256& rng) {
  for (std::size_t i = ball.size(); i > 1; --i) {
    std::swap(ball[i - 1], ball[rng.below(i)]);
  }
}

void expect_same_entries(const std::vector<BallEntry>& got,
                         const std::vector<BallEntry>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].node, want[i].node) << "slot " << i;
    EXPECT_EQ(got[i].dist, want[i].dist) << "slot " << i;
  }
}

TEST(SortBallByNode, MatchesStdSortAcrossPassCounts) {
  // Bounds needing 0, 1, 1, 2, 2, 3 and 4 byte passes (odd counts end in
  // the scratch buffer and copy back); every ball holds ids 0 and
  // bound - 1, the extremes of the top byte.
  util::Xoshiro256 rng(41);
  std::vector<BallEntry> tmp;
  for (const NodeId bound :
       {1u, 2u, 256u, 257u, 65536u, 65537u, (1u << 24) + 1}) {
    for (int trial = 0; trial < 25; ++trial) {
      std::set<NodeId> ids{0, bound - 1};
      const std::uint64_t size =
          std::min<std::uint64_t>(bound, 1 + rng.below(600));
      while (ids.size() < size) {
        ids.insert(static_cast<NodeId>(rng.below(bound)));
      }
      std::vector<BallEntry> ball;
      for (const NodeId id : ids) {
        ball.push_back({id, static_cast<std::uint8_t>(rng.below(256))});
      }
      shuffle(ball, rng);
      auto want = ball;
      std::sort(want.begin(), want.end(),
                [](const BallEntry& a, const BallEntry& b) {
                  return a.node < b.node;
                });
      sort_ball_by_node(ball, bound, tmp);
      SCOPED_TRACE("bound=" + std::to_string(bound) +
                   " size=" + std::to_string(ball.size()));
      expect_same_entries(ball, want);
    }
  }
}

TEST(SortBallByNode, EmptySingletonAndSubspan) {
  std::vector<BallEntry> tmp;
  std::vector<BallEntry> none;
  sort_ball_by_node(none, 65537, tmp);
  EXPECT_TRUE(none.empty());

  std::vector<BallEntry> one{{65536, 2}};
  sort_ball_by_node(one, 65537, tmp);
  expect_same_entries(one, {{65536, 2}});

  // The overlay sorts each ball past its center: entry 0 must stay put.
  std::vector<BallEntry> ball{{500, 0}, {9, 1}, {70000, 2}, {0, 3}, {256, 1}};
  sort_ball_by_node(std::span<BallEntry>(ball).subspan(1), 70001, tmp);
  expect_same_entries(ball,
                      {{500, 0}, {0, 3}, {9, 1}, {256, 1}, {70000, 2}});
}

}  // namespace
}  // namespace byz::graph
