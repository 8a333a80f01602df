// Breadth-first search toolkit. Everything here operates on the dedup'd
// adjacency view (parallel edges do not change distances).
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace byz::graph {

inline constexpr std::uint32_t kUnreachable =
    std::numeric_limits<std::uint32_t>::max();

/// Reusable BFS scratch space: a generation-stamped visited array avoids
/// O(n) clears between traversals, which matters when we run one bounded
/// BFS per node (small-world construction, tree-like classification).
class BfsScratch {
 public:
  void ensure(std::size_t n);

  /// Begins a new traversal epoch; `visited()` resets implicitly.
  void new_epoch() noexcept { ++epoch_; }
  [[nodiscard]] bool visited(NodeId v) const noexcept {
    return stamp_[v] == epoch_;
  }
  void mark(NodeId v) noexcept { stamp_[v] = epoch_; }

  std::vector<NodeId> queue;  ///< reusable frontier storage

 private:
  std::vector<std::uint64_t> stamp_;
  std::uint64_t epoch_ = 0;
};

/// Distances from `src` to every node (kUnreachable where disconnected),
/// optionally truncated at `max_depth`.
[[nodiscard]] std::vector<std::uint32_t> bfs_distances(
    const Graph& g, NodeId src,
    std::uint32_t max_depth = kUnreachable);

/// One entry of a bounded-ball enumeration: node plus its distance.
struct BallEntry {
  NodeId node;
  std::uint8_t dist;
};

/// Enumerates B(src, radius): all nodes within `radius` hops, including
/// `src` itself at distance 0, in BFS order. Uses caller-provided scratch.
/// `ball_sizes` (at most `radius` entries; may be shorter or empty)
/// receives |B(src, r)| for r = 1..ball_sizes.size(): the BFS level ends,
/// carried forward once the ball stops growing.
void bfs_ball(const Graph& g, NodeId src, std::uint32_t radius,
              BfsScratch& scratch, std::vector<BallEntry>& out,
              std::span<std::uint32_t> ball_sizes = {});

/// Sorts ball entries by node id, every id < `id_bound`. One stable
/// counting pass per byte of `id_bound - 1` (2 passes for id_bound <= 2^16,
/// 3 for <= 2^24), no comparisons; ids in a ball are distinct, so the
/// result equals std::sort by node. `tmp` is caller-owned scratch.
void sort_ball_by_node(std::span<BallEntry> ball, NodeId id_bound,
                       std::vector<BallEntry>& tmp);

/// Multi-source BFS: distance from each node to the nearest source.
[[nodiscard]] std::vector<std::uint32_t> multi_source_distances(
    const Graph& g, std::span<const NodeId> sources,
    std::uint32_t max_depth = kUnreachable);

/// Eccentricity of `src` within its component.
[[nodiscard]] std::uint32_t eccentricity(const Graph& g, NodeId src);

/// The farthest node from `src` and its distance (ties: smallest id).
struct Farthest {
  NodeId node;
  std::uint32_t dist;
};
[[nodiscard]] Farthest farthest_node(const Graph& g, NodeId src);

}  // namespace byz::graph
