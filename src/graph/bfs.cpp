#include "graph/bfs.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>

namespace byz::graph {

void BfsScratch::ensure(std::size_t n) {
  if (stamp_.size() < n) {
    stamp_.assign(n, 0);
    epoch_ = 0;
  }
}

std::vector<std::uint32_t> bfs_distances(const Graph& g, NodeId src,
                                         std::uint32_t max_depth) {
  if (src >= g.num_nodes()) throw std::out_of_range("bfs_distances: bad src");
  std::vector<std::uint32_t> dist(g.num_nodes(), kUnreachable);
  std::vector<NodeId> frontier{src};
  dist[src] = 0;
  std::uint32_t depth = 0;
  std::vector<NodeId> next;
  while (!frontier.empty() && depth < max_depth) {
    next.clear();
    ++depth;
    for (const NodeId u : frontier) {
      for (const NodeId w : g.neighbors(u)) {
        if (dist[w] == kUnreachable) {
          dist[w] = depth;
          next.push_back(w);
        }
      }
    }
    frontier.swap(next);
  }
  return dist;
}

void bfs_ball(const Graph& g, NodeId src, std::uint32_t radius,
              BfsScratch& scratch, std::vector<BallEntry>& out,
              std::span<std::uint32_t> ball_sizes) {
  out.clear();
  scratch.ensure(g.num_nodes());
  scratch.new_epoch();
  scratch.mark(src);
  out.push_back({src, 0});
  std::size_t level_begin = 0;
  std::uint32_t depth = 1;
  for (; depth <= radius; ++depth) {
    const std::size_t level_end = out.size();
    if (level_begin == level_end) break;  // ball stopped growing
    for (std::size_t i = level_begin; i < level_end; ++i) {
      const NodeId u = out[i].node;
      for (const NodeId w : g.neighbors(u)) {
        if (!scratch.visited(w)) {
          scratch.mark(w);
          out.push_back({w, static_cast<std::uint8_t>(depth)});
        }
      }
    }
    level_begin = level_end;
    if (depth <= ball_sizes.size()) {
      ball_sizes[depth - 1] = static_cast<std::uint32_t>(out.size());
    }
  }
  for (; depth <= ball_sizes.size(); ++depth) {
    ball_sizes[depth - 1] = static_cast<std::uint32_t>(out.size());
  }
}

namespace {

/// sort_ball_by_node for a fixed number of byte passes, so the per-entry
/// byte loops unroll.
template <std::uint32_t kPasses>
void radix_sort_ball(std::span<BallEntry> ball, std::vector<BallEntry>& tmp) {
  // All byte histograms in one read, then one scatter per byte (LSD): each
  // pass is stable, so the last one leaves the ids in order.
  std::array<std::array<std::uint32_t, 256>, kPasses> count{};
  for (const BallEntry& e : ball) {
    for (std::uint32_t p = 0; p < kPasses; ++p) {
      ++count[p][(e.node >> (8 * p)) & 0xFF];
    }
  }
  tmp.resize(ball.size());
  BallEntry* src = ball.data();
  BallEntry* dst = tmp.data();
  for (std::uint32_t p = 0; p < kPasses; ++p) {
    std::uint32_t start = 0;
    for (auto& c : count[p]) start += std::exchange(c, start);
    for (std::size_t i = 0; i < ball.size(); ++i) {
      dst[count[p][(src[i].node >> (8 * p)) & 0xFF]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != ball.data()) std::copy(src, src + ball.size(), ball.data());
}

}  // namespace

void sort_ball_by_node(std::span<BallEntry> ball, NodeId id_bound,
                       std::vector<BallEntry>& tmp) {
  if (ball.size() < 2) return;
  const NodeId top = id_bound > 0 ? id_bound - 1 : 0;  // largest legal id
  if (top >= (NodeId{1} << 24)) {
    radix_sort_ball<4>(ball, tmp);
  } else if (top >= (NodeId{1} << 16)) {
    radix_sort_ball<3>(ball, tmp);
  } else if (top >= (NodeId{1} << 8)) {
    radix_sort_ball<2>(ball, tmp);
  } else if (top > 0) {
    radix_sort_ball<1>(ball, tmp);
  }
}

std::vector<std::uint32_t> multi_source_distances(const Graph& g,
                                                  std::span<const NodeId> sources,
                                                  std::uint32_t max_depth) {
  std::vector<std::uint32_t> dist(g.num_nodes(), kUnreachable);
  std::vector<NodeId> frontier;
  for (const NodeId s : sources) {
    if (s >= g.num_nodes()) {
      throw std::out_of_range("multi_source_distances: bad source");
    }
    if (dist[s] != 0 || frontier.empty() || frontier.back() != s) {
      if (dist[s] == kUnreachable) {
        dist[s] = 0;
        frontier.push_back(s);
      }
    }
  }
  std::uint32_t depth = 0;
  std::vector<NodeId> next;
  while (!frontier.empty() && depth < max_depth) {
    next.clear();
    ++depth;
    for (const NodeId u : frontier) {
      for (const NodeId w : g.neighbors(u)) {
        if (dist[w] == kUnreachable) {
          dist[w] = depth;
          next.push_back(w);
        }
      }
    }
    frontier.swap(next);
  }
  return dist;
}

std::uint32_t eccentricity(const Graph& g, NodeId src) {
  const auto dist = bfs_distances(g, src);
  std::uint32_t ecc = 0;
  for (const auto d : dist) {
    if (d != kUnreachable) ecc = std::max(ecc, d);
  }
  return ecc;
}

Farthest farthest_node(const Graph& g, NodeId src) {
  const auto dist = bfs_distances(g, src);
  Farthest best{src, 0};
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (dist[v] != kUnreachable && dist[v] > best.dist) best = {v, dist[v]};
  }
  return best;
}

}  // namespace byz::graph
