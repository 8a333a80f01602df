#include "dynamics/mutable_overlay.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "obs/trace.hpp"

namespace byz::dynamics {

MutableOverlay::MutableOverlay(NodeId n0, std::uint32_t d, std::uint32_t k,
                               std::uint64_t seed)
    : d_(d),
      k_(k == 0 ? graph::paper_k(d) : k),
      seed_(seed) {
  if (n0 < 3) throw std::invalid_argument("MutableOverlay: need n0 >= 3");
  if (d < 4 || d % 2 != 0) {
    throw std::invalid_argument("MutableOverlay: need even d >= 4");
  }
  alive_.assign(n0, 1);
  alive_list_.resize(n0);
  pos_in_list_.resize(n0);
  std::iota(alive_list_.begin(), alive_list_.end(), NodeId{0});
  std::iota(pos_in_list_.begin(), pos_in_list_.end(), NodeId{0});
  alive_count_ = n0;

  // The exact cycle sampling of build_hamiltonian_graph: one shared perm,
  // Fisher-Yates re-shuffled per cycle, rings read off consecutively. A
  // snapshot before any operation therefore reproduces Overlay::build bit
  // for bit.
  const std::uint32_t cycles = d_ / 2;
  succ_.assign(cycles, std::vector<NodeId>(n0));
  pred_.assign(cycles, std::vector<NodeId>(n0));
  util::Xoshiro256 rng(seed);
  std::vector<NodeId> perm(n0);
  std::iota(perm.begin(), perm.end(), NodeId{0});
  for (std::uint32_t c = 0; c < cycles; ++c) {
    for (NodeId i = n0 - 1; i > 0; --i) {
      const auto j = static_cast<NodeId>(rng.below(i + 1));
      std::swap(perm[i], perm[j]);
    }
    for (NodeId i = 0; i < n0; ++i) {
      const NodeId u = perm[i];
      const NodeId v = perm[(i + 1) % n0];
      succ_[c][u] = v;
      pred_[c][v] = u;
    }
  }
}

NodeId MutableOverlay::join(util::Xoshiro256& rng) {
  std::vector<NodeId> anchors(num_cycles());
  for (auto& a : anchors) a = random_alive(rng);
  return join_at(anchors);
}

NodeId MutableOverlay::join_at(std::span<const NodeId> anchors) {
  if (anchors.size() != num_cycles()) {
    throw std::invalid_argument("join_at: need one anchor per cycle");
  }
  for (const NodeId a : anchors) {
    if (!is_alive(a)) throw std::invalid_argument("join_at: dead anchor");
  }
  const auto v = static_cast<NodeId>(alive_.size());
  alive_.push_back(1);
  pos_in_list_.push_back(static_cast<NodeId>(alive_list_.size()));
  alive_list_.push_back(v);
  ++alive_count_;
  for (std::uint32_t c = 0; c < num_cycles(); ++c) {
    succ_[c].push_back(graph::kInvalidNode);
    pred_[c].push_back(graph::kInvalidNode);
  }
  splice_in(v, anchors);
  return v;
}

void MutableOverlay::splice_in(NodeId v, std::span<const NodeId> anchors) {
  for (std::uint32_t c = 0; c < num_cycles(); ++c) {
    const NodeId a = anchors[c];
    const NodeId s = succ_[c][a];
    succ_[c][a] = v;
    pred_[c][v] = a;
    succ_[c][v] = s;
    pred_[c][s] = v;
  }
}

void MutableOverlay::leave(NodeId v) {
  if (!is_alive(v)) throw std::invalid_argument("leave: node not alive");
  if (alive_count_ <= 3) {
    throw std::invalid_argument("leave: overlay cannot shrink below 3 nodes");
  }
  for (std::uint32_t c = 0; c < num_cycles(); ++c) {
    const NodeId p = pred_[c][v];
    const NodeId s = succ_[c][v];
    succ_[c][p] = s;
    pred_[c][s] = p;
    succ_[c][v] = graph::kInvalidNode;
    pred_[c][v] = graph::kInvalidNode;
  }
  alive_[v] = 0;
  const NodeId pos = pos_in_list_[v];
  const NodeId last = alive_list_.back();
  alive_list_[pos] = last;
  pos_in_list_[last] = pos;
  alive_list_.pop_back();
  --alive_count_;
}

std::vector<NodeId> MutableOverlay::alive_nodes() const {
  std::vector<NodeId> out(alive_list_);
  std::sort(out.begin(), out.end());
  return out;
}

NodeId MutableOverlay::Snapshot::to_dense(NodeId stable) const {
  const auto it = std::lower_bound(dense_to_stable.begin(),
                                   dense_to_stable.end(), stable);
  if (it == dense_to_stable.end() || *it != stable) return graph::kInvalidNode;
  return static_cast<NodeId>(it - dense_to_stable.begin());
}

MutableOverlay::Snapshot MutableOverlay::snapshot() const {
  obs::Span snapshot_span("dynamics.snapshot");
  Snapshot snap;
  snap.dense_to_stable = alive_nodes();
  const auto n = static_cast<NodeId>(snap.dense_to_stable.size());

  std::vector<NodeId> dense(alive_.size(), graph::kInvalidNode);
  for (NodeId i = 0; i < n; ++i) dense[snap.dense_to_stable[i]] = i;

  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(static_cast<std::size_t>(n) * num_cycles());
  for (std::uint32_t c = 0; c < num_cycles(); ++c) {
    for (NodeId i = 0; i < n; ++i) {
      const NodeId v = snap.dense_to_stable[i];
      edges.emplace_back(i, dense[succ_[c][v]]);
    }
  }

  graph::OverlayParams params;
  params.n = n;
  params.d = d_;
  params.k = k_;
  params.seed = seed_;
  snap.overlay = graph::Overlay::build_from_h(
      params, graph::Graph::from_edges(n, edges, /*dedup=*/false));
  return snap;
}

}  // namespace byz::dynamics
