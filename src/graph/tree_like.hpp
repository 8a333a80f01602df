// Locally-tree-like classification (Definitions 7/8, Lemma 1/21): node w is
// LTL at radius r iff the subgraph induced by B(w, r) in the d-regular H is
// a full (d-1)-ary tree. Equivalently (and this is how we test it): the
// ball has exactly the tree size 1 + d * ((d-1)^r - 1)/(d-2) — any cross,
// back, or parallel edge shrinks the BFS ball below that.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace byz::graph {

/// |B(w, r)| in the infinite d-regular tree.
[[nodiscard]] std::uint64_t tree_ball_size(std::uint32_t d, std::uint32_t r);

/// The paper's LTL radius r = log n / (10 log d) (base-2 logs), at least
/// the value it evaluates to; < 1 for all practical n — callers typically
/// clamp with max(1, ...). Returned un-clamped so experiments can report it.
[[nodiscard]] double paper_ltl_radius(std::uint64_t n, std::uint32_t d);

struct TreeLikeResult {
  std::vector<bool> is_tree_like;  ///< per node
  std::uint64_t count = 0;         ///< number of LTL nodes
  std::uint32_t radius = 0;        ///< radius used
};

/// Classifies every node of the d-regular multigraph H at the given radius.
/// Uses the multigraph adjacency (parallel edges make a node atypical, as
/// they must). Serial: its callers run it inside trial workers.
[[nodiscard]] TreeLikeResult classify_tree_like(const Graph& h_multi,
                                                std::uint32_t d,
                                                std::uint32_t radius);

}  // namespace byz::graph
