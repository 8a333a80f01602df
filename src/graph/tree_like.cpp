#include "graph/tree_like.hpp"

#include <cmath>
#include <stdexcept>

#include "graph/bfs.hpp"

namespace byz::graph {

std::uint64_t tree_ball_size(std::uint32_t d, std::uint32_t r) {
  if (d < 3) throw std::invalid_argument("tree_ball_size: need d >= 3");
  // 1 + d + d(d-1) + ... + d(d-1)^(r-1)
  std::uint64_t size = 1;
  std::uint64_t level = d;
  for (std::uint32_t i = 0; i < r; ++i) {
    size += level;
    level *= (d - 1);
  }
  return size;
}

double paper_ltl_radius(std::uint64_t n, std::uint32_t d) {
  return std::log2(static_cast<double>(n)) / (10.0 * std::log2(d));
}

namespace {

/// A node is LTL at radius r iff its BFS ball over the multigraph has full
/// tree size AND no parallel edges occur inside the ball. Parallel edges
/// also shrink the dedup'd ball, so checking the dedup'd ball size against
/// the tree size is sufficient — but we traverse the multigraph directly
/// and count distinct visits, which is the same thing.
bool node_is_tree_like(const Graph& h_multi, NodeId w, std::uint32_t radius,
                       std::uint64_t want, BfsScratch& scratch,
                       std::vector<BallEntry>& ball) {
  bfs_ball(h_multi, w, radius, scratch, ball);
  if (ball.size() != want) return false;
  // Ball size matches the tree; any extra edge inside the ball would have
  // caused a repeat visit and a smaller ball, EXCEPT edges between two
  // last-level nodes or parallel edges re-hitting a visited node — those
  // also produce repeats during expansion, which bfs_ball skips without
  // shrinking the ball. Verify explicitly: total multigraph edge endpoints
  // inside the ball must equal the tree's (nodes - 1) * 2 plus the edges
  // leaving the last level.
  std::uint64_t internal_endpoints = 0;
  scratch.new_epoch();
  for (const auto& e : ball) scratch.mark(e.node);
  for (const auto& e : ball) {
    if (e.dist == radius) continue;  // only interior expansions counted
    for (const NodeId nb : h_multi.neighbors(e.node)) {
      if (scratch.visited(nb)) ++internal_endpoints;
    }
  }
  // In a perfect tree every interior node has all d slots pointing at ball
  // members (parent + children), except the root contributes d and each
  // interior level likewise; the expected count is:
  //   sum over interior nodes of (#neighbors inside ball)
  // For the tree: root d; each interior non-root node 1 (parent) + (d-1)
  // children = d. So expected = (#interior nodes) * d.
  std::uint64_t interior = 0;
  for (const auto& e : ball) {
    if (e.dist < radius) ++interior;
  }
  return internal_endpoints == interior * static_cast<std::uint64_t>(
                                              h_multi.degree(w));
}

}  // namespace

TreeLikeResult classify_tree_like(const Graph& h_multi, std::uint32_t d,
                                  std::uint32_t radius) {
  const NodeId n = h_multi.num_nodes();
  TreeLikeResult result;
  result.radius = radius;
  result.is_tree_like.assign(n, false);
  const std::uint64_t want = tree_ball_size(d, radius);
  BfsScratch scratch;
  std::vector<BallEntry> ball;
  for (NodeId v = 0; v < n; ++v) {
    const bool ltl =
        node_is_tree_like(h_multi, v, radius, want, scratch, ball);
    result.is_tree_like[v] = ltl;
    if (ltl) ++result.count;
  }
  return result;
}

}  // namespace byz::graph
