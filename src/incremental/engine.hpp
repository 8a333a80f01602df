// Kept only for perfbench/driver.cpp, which constructs it: snapshot() is
// MutableOverlay::snapshot(), so stats() counts every node as recomputed.
#pragma once

#include <cstdint>

#include "dynamics/mutable_overlay.hpp"

namespace byz::incremental {

class IncrementalEngine {
 public:
  struct Stats {
    std::uint64_t last_recomputed = 0;  ///< nodes in the last snapshot
    std::uint64_t last_reused = 0;      ///< always 0
  };
  explicit IncrementalEngine(dynamics::MutableOverlay& o) : overlay_(&o) {}
  [[nodiscard]] dynamics::MutableOverlay::Snapshot snapshot() {
    auto snap = overlay_->snapshot();
    stats_.last_recomputed = snap.overlay.num_nodes();
    return snap;
  }
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  dynamics::MutableOverlay* overlay_;
  Stats stats_;
};

}  // namespace byz::incremental
