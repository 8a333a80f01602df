// Compressed-sparse-row undirected (multi)graph. This is the substrate for
// both H (the d-regular Hamiltonian-union multigraph, where parallel edges
// must be preserved to keep exact d-regularity) and G = H ∪ L (deduplicated).
#pragma once

#include <cstdint>
#include <span>
#include <utility>

#include "util/aligned.hpp"

namespace byz::graph {

using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/// Immutable CSR adjacency. Neighbor lists are sorted, which makes
/// `has_edge` a binary search and set intersections linear.
class Graph {
 public:
  /// CSR row storage is cache-line aligned: the flood kernel and verifier
  /// row recomputation stream these arrays, and 64-byte alignment keeps
  /// row starts from straddling an extra line. Callers that assemble CSR
  /// arrays for from_csr build them in these types so the adoption stays
  /// a move.
  using OffsetVec = util::aligned_vector<std::uint64_t>;
  using NeighborVec = util::aligned_vector<NodeId>;

  Graph() = default;

  /// Builds from an undirected edge list. Each {u, v} contributes one slot
  /// to u's list and one to v's. `dedup` removes parallel edges and
  /// self-loops; H keeps them (multigraph), G drops them.
  [[nodiscard]] static Graph from_edges(
      NodeId num_nodes, std::span<const std::pair<NodeId, NodeId>> edges,
      bool dedup);

  /// Adopts ready-made CSR arrays without per-edge work — the fast path for
  /// callers that already hold sorted per-node ranges (the overlay's G
  /// build, after compacting its fixed-stride rows in place). `neighbors`
  /// may hold spare capacity; it is kept. `offsets` must be monotone with
  /// offsets[0] == 0 and offsets.back() == neighbors.size(); each node's
  /// range must be sorted ascending (checked in debug builds only).
  [[nodiscard]] static Graph from_csr(OffsetVec offsets,
                                      NeighborVec neighbors);

  [[nodiscard]] NodeId num_nodes() const noexcept {
    return offsets_.empty() ? 0 : static_cast<NodeId>(offsets_.size() - 1);
  }
  /// Number of adjacency slots / 2 (undirected edge count incl. parallels).
  [[nodiscard]] std::uint64_t num_edges() const noexcept {
    return neighbors_.size() / 2;
  }

  [[nodiscard]] std::span<const NodeId> neighbors(NodeId v) const {
    return {neighbors_.data() + offsets_[v],
            neighbors_.data() + offsets_[v + 1]};
  }
  [[nodiscard]] std::uint32_t degree(NodeId v) const {
    return static_cast<std::uint32_t>(offsets_[v + 1] - offsets_[v]);
  }
  /// True iff at least one {u, v} edge exists (binary search).
  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const;

  /// Total adjacency slots (= 2 * num_edges()).
  [[nodiscard]] std::uint64_t num_slots() const noexcept {
    return neighbors_.size();
  }

  /// Index of v's first adjacency slot; parallel arrays (e.g. per-slot
  /// distance annotations in the small-world overlay) use this to align.
  [[nodiscard]] std::uint64_t first_slot(NodeId v) const { return offsets_[v]; }

  /// Maximum and minimum degree over all nodes (0 for the empty graph).
  [[nodiscard]] std::uint32_t max_degree() const noexcept;
  [[nodiscard]] std::uint32_t min_degree() const noexcept;

  /// True iff every node has degree exactly d.
  [[nodiscard]] bool is_regular(std::uint32_t d) const noexcept;

  /// Memory used by the CSR arrays, in bytes (for the perf experiments).
  [[nodiscard]] std::uint64_t memory_bytes() const noexcept {
    return offsets_.size() * sizeof(std::uint64_t) +
           neighbors_.size() * sizeof(NodeId);
  }

 private:
  OffsetVec offsets_;      // size n+1
  NeighborVec neighbors_;  // size 2m, sorted per node
};

}  // namespace byz::graph
