// Delta-applied small-world overlay for evolving (churning) networks.
//
// The static H(n, d) model is the union of d/2 independent Hamiltonian
// cycles (graph/hamiltonian.*). MutableOverlay keeps those cycles EXPLICIT
// — one successor/predecessor ring per cycle over stable node ids — which
// is exactly the Law & Siu construction for dynamic P2P overlays: a join
// splices the new node into each ring at an independent position and a
// leave splices it out, so every operation costs O(d) pointer updates and
// the invariants the paper's lemmas rest on hold BY CONSTRUCTION after any
// operation sequence:
//   * H stays an exactly d-regular multigraph (each ring contributes 2);
//   * H stays connected (each ring is a Hamiltonian cycle on the alive set);
//   * random splices keep each ring a uniformly random cycle, so snapshots
//     stay within the H(n, d) distribution family (expansion w.h.p.).
//
// Stable ids are never reused; `snapshot()` compacts the alive set to the
// dense [0, n) ids the immutable graph::Overlay world expects and stamps
// the result with the mutation generation (OverlayParams::generation), so
// epoch snapshots can never alias a cached static overlay.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/small_world.hpp"
#include "util/rng.hpp"

namespace byz::dynamics {

using graph::NodeId;

class MutableOverlay {
 public:
  /// Bootstraps with `n0` nodes (stable ids 0..n0-1) by running the exact
  /// Fisher-Yates cycle sampling of build_hamiltonian_graph on `seed`: the
  /// generation-0 snapshot is edge-identical to Overlay::build({n0, d, k,
  /// seed}). Requirements: n0 >= 3, d even >= 4; k = 0 means paper k.
  MutableOverlay(NodeId n0, std::uint32_t d, std::uint32_t k,
                 std::uint64_t seed);

  [[nodiscard]] std::uint32_t d() const noexcept { return d_; }
  [[nodiscard]] std::uint32_t k() const noexcept { return k_; }
  [[nodiscard]] std::uint32_t num_cycles() const noexcept { return d_ / 2; }
  [[nodiscard]] NodeId num_alive() const noexcept { return alive_count_; }
  /// Stable ids live in [0, id_bound()); dead ids are never reused.
  [[nodiscard]] NodeId id_bound() const noexcept {
    return static_cast<NodeId>(alive_.size());
  }
  [[nodiscard]] bool is_alive(NodeId v) const noexcept {
    return v < alive_.size() && alive_[v] != 0;
  }
  /// Bumped by every join/leave/rewire (the op COUNT).
  [[nodiscard]] std::uint64_t generation() const noexcept {
    return generation_;
  }
  /// The seed the generation-0 topology was sampled from (snapshot params
  /// record it as provenance).
  [[nodiscard]] std::uint64_t bootstrap_seed() const noexcept { return seed_; }

  /// Topology build tag stamped into snapshot params: a SplitMix64 fold of
  /// the bootstrap seed and the full operation log (op kind, node, anchors),
  /// so two overlays reach the same tag only by replaying the identical
  /// history — an op COUNTER would collide across e.g. leave(0) vs leave(1).
  /// Always nonzero (0 is reserved for static Overlay::build samples).
  [[nodiscard]] std::uint64_t build_tag() const noexcept {
    return history_tag_ == 0 ? 1 : history_tag_;
  }

  /// Joins a new node by splicing it into each ring after an independent
  /// uniformly random alive anchor. Returns the new stable id.
  NodeId join(util::Xoshiro256& rng);

  /// Joins with caller-chosen anchors (one alive node per ring; the joiner
  /// becomes the anchor's ring successor). This is the adversarial join
  /// surface: eclipse placement passes the victim as every anchor.
  NodeId join_at(std::span<const NodeId> anchors);

  /// Splices `v` out of every ring. Throws if v is not alive or the
  /// overlay would shrink below 3 nodes (a ring needs >= 2 others).
  void leave(NodeId v);

  /// Repair/rewiring primitive: re-splices `v` at fresh random positions
  /// (equivalent to leave + join but keeps the stable id). Refreshing
  /// splice randomness is how a deployment heals locality that accumulated
  /// from correlated departures.
  void rewire(NodeId v, util::Xoshiro256& rng);

  /// Ring successor / predecessor of alive node v in cycle c.
  [[nodiscard]] NodeId successor(std::uint32_t cycle, NodeId v) const {
    return succ_[cycle][v];
  }
  [[nodiscard]] NodeId predecessor(std::uint32_t cycle, NodeId v) const {
    return pred_[cycle][v];
  }

  /// Uniformly random alive node (deterministic given the op history).
  [[nodiscard]] NodeId random_alive(util::Xoshiro256& rng) const {
    return alive_list_[rng.below(alive_count_)];
  }

  /// Sorted stable ids of the alive set.
  [[nodiscard]] std::vector<NodeId> alive_nodes() const;

  /// An immutable overlay over the alive set, with stable ids compacted to
  /// dense [0, n) in increasing stable-id order.
  struct Snapshot {
    graph::Overlay overlay;
    std::vector<NodeId> dense_to_stable;  ///< size overlay.num_nodes()
    /// Dense id of a stable id (binary search); kInvalidNode if not alive.
    [[nodiscard]] NodeId to_dense(NodeId stable) const;
  };

  /// Extracts the snapshot: O(n·d) edge assembly plus the overlay's eager
  /// ball-count pass; its G is built on first read, as for any overlay.
  /// Every churn epoch runs on one. params.generation = build_tag() (never
  /// 0, so a snapshot key is always distinct from the static sample's, and
  /// distinct histories get distinct keys).
  [[nodiscard]] Snapshot snapshot() const;

 private:
  void splice_in(NodeId v, std::span<const NodeId> anchors);
  void fold(std::uint64_t value) noexcept {
    history_tag_ = util::mix_seed(history_tag_, value);
  }
  std::uint32_t d_;
  std::uint32_t k_;
  std::uint64_t seed_;
  std::uint64_t generation_ = 0;
  std::uint64_t history_tag_ = 0;
  NodeId alive_count_ = 0;
  std::vector<std::uint8_t> alive_;        ///< by stable id
  std::vector<NodeId> alive_list_;         ///< unordered alive ids
  std::vector<NodeId> pos_in_list_;        ///< stable id -> alive_list_ index
  std::vector<std::vector<NodeId>> succ_;  ///< [cycle][stable id]
  std::vector<std::vector<NodeId>> pred_;  ///< [cycle][stable id]
};

}  // namespace byz::dynamics
