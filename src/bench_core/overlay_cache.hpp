// Shared overlay cache for the orchestrator: scenarios that sweep the same
// (n, d, seed) grid reuse one immutable Overlay instead of re-sampling it.
// Only static samples (generation 0) enter: an epoch snapshot of an
// evolving overlay cannot be re-derived from its params, so get() refuses
// it. Concurrent requests for the same key build once — later callers
// block on the builder's shared_future. Overlays are handed out as
// shared_ptr<const Overlay>, so eviction never invalidates a live user.
#pragma once

#include <cstdint>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>

#include "graph/small_world.hpp"

namespace byz::bench_core {

class OverlayCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t resident_bytes = 0;
    std::size_t entries = 0;
  };

  /// `max_bytes` bounds resident overlay memory (0 = unlimited); least
  /// recently used entries are evicted past the bound. Each insertion
  /// re-reads every entry's memory_bytes(), so a G built since counts.
  explicit OverlayCache(std::uint64_t max_bytes = 0) : max_bytes_(max_bytes) {}

  /// Returns the overlay for `params`, building it on a miss. Thread-safe;
  /// a concurrent miss on the same key builds exactly once. Throws
  /// std::invalid_argument when params.generation != 0: a snapshot of an
  /// evolving overlay cannot be re-derived from (n, d, seed).
  [[nodiscard]] std::shared_ptr<const graph::Overlay> get(
      const graph::OverlayParams& params);

  /// Convenience overload for the common (n, d, seed) case (paper k).
  [[nodiscard]] std::shared_ptr<const graph::Overlay> get(graph::NodeId n,
                                                          std::uint32_t d,
                                                          std::uint64_t seed);

  [[nodiscard]] Stats stats() const;
  void clear();

 private:
  struct Key {
    graph::NodeId n;
    std::uint32_t d;
    std::uint32_t k;
    std::uint64_t seed;
    auto operator<=>(const Key&) const = default;
  };
  struct Entry {
    std::shared_future<std::shared_ptr<const graph::Overlay>> overlay;
    std::list<Key>::iterator lru_pos;
    /// memory_bytes() when last read (at insertion and on every eviction
    /// check); 0 until the build completes.
    std::uint64_t bytes = 0;
  };

  void evict_locked(const Key& incoming);

  mutable std::mutex mutex_;
  std::map<Key, Entry> entries_;
  std::list<Key> lru_;  ///< front = most recently used
  std::uint64_t max_bytes_;
  std::uint64_t resident_bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace byz::bench_core
