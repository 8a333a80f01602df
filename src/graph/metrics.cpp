#include "graph/metrics.hpp"

#include <algorithm>
#include <vector>

#include "graph/bfs.hpp"
#include "util/rng.hpp"

namespace byz::graph {

namespace {

/// Counts edges among the (sorted, dedup'd) neighbor list of v.
std::uint64_t edges_among_neighbors(const Graph& g, NodeId v) {
  const auto nbrs = g.neighbors(v);
  std::uint64_t count = 0;
  for (const NodeId u : nbrs) {
    // Intersect u's adjacency with nbrs; both sorted.
    const auto un = g.neighbors(u);
    auto a = nbrs.begin();
    auto b = un.begin();
    while (a != nbrs.end() && b != un.end()) {
      if (*a < *b) {
        ++a;
      } else if (*b < *a) {
        ++b;
      } else {
        ++count;
        ++a;
        ++b;
      }
    }
  }
  return count / 2;  // each triangle edge counted from both endpoints
}

double local_clustering(const Graph& g, NodeId v) {
  const std::uint64_t deg = g.degree(v);
  if (deg < 2) return 0.0;
  const auto possible = static_cast<double>(deg * (deg - 1) / 2);
  return static_cast<double>(edges_among_neighbors(g, v)) / possible;
}

}  // namespace

double average_clustering(const Graph& simple, std::uint32_t sample,
                          std::uint64_t seed) {
  const NodeId n = simple.num_nodes();
  if (n == 0) return 0.0;
  std::vector<NodeId> targets;
  if (sample == 0 || sample >= n) {
    targets.resize(n);
    for (NodeId v = 0; v < n; ++v) targets[v] = v;
  } else {
    util::Xoshiro256 rng(seed);
    targets.reserve(sample);
    for (std::uint32_t i = 0; i < sample; ++i) {
      targets.push_back(static_cast<NodeId>(rng.below(n)));
    }
  }
  // Summed in target order: E03's manifest pins the bits of this average.
  double sum = 0.0;
  for (const NodeId t : targets) sum += local_clustering(simple, t);
  return sum / static_cast<double>(targets.size());
}

DiameterResult diameter(const Graph& g, std::uint32_t exact_threshold,
                        std::uint32_t probes, std::uint64_t seed) {
  const NodeId n = g.num_nodes();
  if (n == 0) return {0, true};
  if (n <= exact_threshold) {
    std::uint32_t best = 0;
    for (NodeId v = 0; v < n; ++v) best = std::max(best, eccentricity(g, v));
    return {best, true};
  }
  // Iterated double sweep: BFS from a random node, then from the farthest
  // node found; repeat from several seeds. Lower-bounds the diameter.
  util::Xoshiro256 rng(seed);
  std::uint32_t best = 0;
  for (std::uint32_t p = 0; p < probes; ++p) {
    const auto start = static_cast<NodeId>(rng.below(n));
    const Farthest f1 = farthest_node(g, start);
    const Farthest f2 = farthest_node(g, f1.node);
    best = std::max(best, f2.dist);
  }
  return {best, false};
}

double average_path_length(const Graph& g, std::uint32_t sources,
                           std::uint64_t seed) {
  const NodeId n = g.num_nodes();
  if (n < 2) return 0.0;
  util::Xoshiro256 rng(seed);
  std::vector<NodeId> roots;
  roots.reserve(sources);
  for (std::uint32_t i = 0; i < sources; ++i) {
    roots.push_back(static_cast<NodeId>(rng.below(n)));
  }
  double total = 0.0;
  std::uint64_t pairs = 0;
  for (const NodeId root : roots) {
    const auto dist = bfs_distances(g, root);
    for (const auto d : dist) {
      if (d != kUnreachable && d > 0) {
        total += d;
        ++pairs;
      }
    }
  }
  return pairs ? total / static_cast<double>(pairs) : 0.0;
}

}  // namespace byz::graph
