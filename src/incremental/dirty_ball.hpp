// Dirty-ball maintenance for evolving overlays.
//
// A node's k-ball (the BFS ball that materializes its G-adjacency) can only
// change across a splice if some path of length <= k from it traverses an
// edge the splice added or removed. Walking such a witness path from the
// node to the FIRST changed edge yields a prefix made of unchanged edges —
// a prefix that exists both before and after the op — ending at a touched
// endpoint at distance <= k-1 (the changed edge itself occupies one hop).
// Hence one multi-source BFS of depth k-1 from the touched endpoints, run
// in the post-op ring structure, marks a superset of every node whose ball
// changed. (A departed node is unreachable without crossing one of its own
// removed edges, so its live ring neighbors — which are all touched —
// stand in for it.)
//
// DirtyBallTracker subscribes to MutableOverlay splices and accumulates
// that superset as a stable-id bitmap: the per-op cost is O(|B_H(touched,
// k)|) = O(d^2 (d-1)^(k-1)), independent of n, which is what lets
// IncrementalEngine::snapshot() recompute only the churn-affected balls.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dynamics/mutable_overlay.hpp"

namespace byz::incremental {

using dynamics::MutableOverlay;
using graph::NodeId;

class DirtyBallTracker final : public MutableOverlay::SpliceObserver {
 public:
  /// Attaches to `overlay` (replacing any previous observer) and starts
  /// with every bootstrap node clean — callers that have never snapshotted
  /// treat the tracker's state as "everything dirty" themselves.
  explicit DirtyBallTracker(MutableOverlay& overlay);
  ~DirtyBallTracker() override;

  DirtyBallTracker(const DirtyBallTracker&) = delete;
  DirtyBallTracker& operator=(const DirtyBallTracker&) = delete;

  void on_splice(std::span<const NodeId> touched) override;

  /// True iff `stable`'s ball may differ from the last drained state.
  [[nodiscard]] bool is_dirty(NodeId stable) const noexcept {
    return stable < dirty_.size() && dirty_[stable] != 0;
  }
  [[nodiscard]] std::uint64_t dirty_count() const noexcept {
    return dirty_count_;
  }
  /// Splice ops observed since the last clear().
  [[nodiscard]] std::uint64_t splices_seen() const noexcept {
    return splices_;
  }

  /// Marks every currently-alive node dirty (full-rebuild semantics).
  void mark_all_dirty();

  /// Drains the dirty set after a snapshot consumed it.
  void clear();

 private:
  void mark(NodeId stable);

  MutableOverlay* overlay_;
  std::uint32_t k_;
  std::vector<std::uint8_t> dirty_;  ///< by stable id
  std::uint64_t dirty_count_ = 0;
  std::uint64_t splices_ = 0;
  // Stamp-based BFS scratch (avoids O(id_bound) clears per splice).
  std::vector<std::uint64_t> stamp_;
  std::uint64_t epoch_ = 0;
  std::vector<NodeId> frontier_;
  std::vector<NodeId> next_;
};

}  // namespace byz::incremental
