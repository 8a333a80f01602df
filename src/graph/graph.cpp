#include "graph/graph.hpp"

#include <algorithm>
#include <stdexcept>

namespace byz::graph {

Graph Graph::from_edges(NodeId num_nodes,
                        std::span<const std::pair<NodeId, NodeId>> edges,
                        bool dedup) {
  Graph g;
  g.offsets_.assign(static_cast<std::size_t>(num_nodes) + 1, 0);
  for (const auto& [u, v] : edges) {
    if (u >= num_nodes || v >= num_nodes) {
      throw std::out_of_range("Graph::from_edges: node id out of range");
    }
    if (dedup && u == v) continue;  // self-loops dropped in simple mode
    ++g.offsets_[u + 1];
    ++g.offsets_[v + 1];
  }
  for (std::size_t i = 1; i < g.offsets_.size(); ++i) {
    g.offsets_[i] += g.offsets_[i - 1];
  }
  g.neighbors_.resize(g.offsets_.back());
  std::vector<std::uint64_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (const auto& [u, v] : edges) {
    if (dedup && u == v) continue;
    g.neighbors_[cursor[u]++] = v;
    g.neighbors_[cursor[v]++] = u;
  }
  for (NodeId v = 0; v < num_nodes; ++v) {
    auto* begin = g.neighbors_.data() + g.offsets_[v];
    auto* end = g.neighbors_.data() + g.offsets_[v + 1];
    std::sort(begin, end);
  }
  if (!dedup) return g;

  // Deduplicate parallel edges in place, then rebuild offsets.
  OffsetVec new_offsets(g.offsets_.size(), 0);
  std::uint64_t write = 0;
  for (NodeId v = 0; v < num_nodes; ++v) {
    const std::uint64_t begin = g.offsets_[v];
    const std::uint64_t end = g.offsets_[v + 1];
    NodeId last = kInvalidNode;
    for (std::uint64_t i = begin; i < end; ++i) {
      const NodeId w = g.neighbors_[i];
      if (w == last) continue;
      last = w;
      g.neighbors_[write++] = w;
    }
    new_offsets[v + 1] = write;
  }
  g.neighbors_.resize(write);
  g.offsets_ = std::move(new_offsets);
  return g;
}

Graph Graph::from_csr(OffsetVec offsets, NeighborVec neighbors) {
  if (offsets.empty() || offsets.front() != 0 ||
      offsets.back() != neighbors.size()) {
    throw std::invalid_argument("Graph::from_csr: malformed offsets");
  }
  for (std::size_t v = 1; v < offsets.size(); ++v) {
    if (offsets[v] < offsets[v - 1]) {
      throw std::invalid_argument("Graph::from_csr: offsets not monotone");
    }
  }
#ifndef NDEBUG
  for (std::size_t v = 1; v < offsets.size(); ++v) {
    for (std::uint64_t i = offsets[v - 1] + 1; i < offsets[v]; ++i) {
      if (neighbors[i - 1] > neighbors[i]) {
        throw std::invalid_argument("Graph::from_csr: range not sorted");
      }
    }
  }
#endif
  Graph g;
  g.offsets_ = std::move(offsets);
  g.neighbors_ = std::move(neighbors);
  return g;
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  const auto nbrs = neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

std::uint32_t Graph::max_degree() const noexcept {
  std::uint32_t best = 0;
  for (NodeId v = 0; v < num_nodes(); ++v) best = std::max(best, degree(v));
  return best;
}

std::uint32_t Graph::min_degree() const noexcept {
  if (num_nodes() == 0) return 0;
  std::uint32_t best = degree(0);
  for (NodeId v = 1; v < num_nodes(); ++v) best = std::min(best, degree(v));
  return best;
}

bool Graph::is_regular(std::uint32_t d) const noexcept {
  for (NodeId v = 0; v < num_nodes(); ++v) {
    if (degree(v) != d) return false;
  }
  return true;
}

}  // namespace byz::graph
