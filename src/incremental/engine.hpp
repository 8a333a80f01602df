// Incremental snapshot engine: the epoch-to-epoch sublinear hot path.
//
// MutableOverlay::snapshot() rebuilds every BFS k-ball from scratch, so an
// epoch over a network where 0.1% of the nodes churned costs the same as a
// cold run. IncrementalEngine keeps the k-balls of the PREVIOUS snapshot in
// stable-id space, listens to splices through a DirtyBallTracker, and per
// snapshot
//   * re-runs the bounded BFS only for dirty nodes (those within distance
//     k-1 of any splice endpoint — a superset of every changed ball),
//     keeping beside each ball its witness counts |B_H(v, r)| for
//     r = 1..witness_width(k) (the columns the colour audit bills),
//   * translates all balls stable→dense and assembles the G/H CSR arrays
//     and the ball-count table directly (Graph::from_csr +
//     Overlay::build_with_balls), skipping for every clean node the full
//     rebuild's count BFS and the BFS and sort of its first G read.
// The result is bitwise identical to MutableOverlay::snapshot() — the
// config's verify_against_full debug mode asserts exactly that on every
// call, and the property suite replays hundreds of seeded op interleavings
// against the full rebuild.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/bfs.hpp"
#include "incremental/dirty_ball.hpp"

namespace byz::incremental {

struct IncrementalStats {
  std::uint64_t snapshots = 0;
  std::uint64_t full_rebuilds = 0;  ///< the first snapshot
  std::uint64_t balls_recomputed = 0;
  std::uint64_t balls_reused = 0;
  std::uint64_t verified = 0;  ///< debug cross-checks that passed
  // Per-call view of the last snapshot() (the cumulative counters above
  // aggregate across epochs).
  std::uint64_t last_recomputed = 0;
  std::uint64_t last_reused = 0;
};

class IncrementalEngine {
 public:
  struct Config {
    /// Debug mode: every snapshot() also runs the full rebuild and throws
    /// std::logic_error unless the two overlays are bitwise identical.
    bool verify_against_full = false;
  };

  explicit IncrementalEngine(MutableOverlay& overlay)
      : IncrementalEngine(overlay, Config{}) {}
  IncrementalEngine(MutableOverlay& overlay, Config config);

  /// The incremental equivalent of MutableOverlay::snapshot(); drains the
  /// tracker. Bitwise identical to the full rebuild by contract.
  [[nodiscard]] MutableOverlay::Snapshot snapshot();

  [[nodiscard]] const IncrementalStats& stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] const DirtyBallTracker& tracker() const noexcept {
    return tracker_;
  }

 private:
  void recompute_ball(NodeId stable, graph::BfsScratch& scratch,
                      std::vector<graph::BallEntry>& tmp);

  MutableOverlay* overlay_;
  Config config_;
  DirtyBallTracker tracker_;
  std::vector<std::vector<graph::BallEntry>> balls_;  ///< by stable id
  /// witness_width(k) cumulative counts |B_H(v, r)| per stable id,
  /// row-major.
  std::vector<std::uint32_t> counts_;
  bool has_snapshot_ = false;
  IncrementalStats stats_;
};

/// Deep structural equality of two overlays: params, H, its simple view,
/// G, the per-slot distance annotations and the ball counts. The
/// equivalence oracle for the incremental-vs-full contract (debug mode,
/// property tests, E20).
[[nodiscard]] bool overlays_identical(const graph::Overlay& a,
                                      const graph::Overlay& b);

}  // namespace byz::incremental
