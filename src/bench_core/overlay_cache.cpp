#include "bench_core/overlay_cache.hpp"

#include <stdexcept>

namespace byz::bench_core {

std::shared_ptr<const graph::Overlay> OverlayCache::get(
    const graph::OverlayParams& params) {
  if (params.generation != 0) {
    throw std::invalid_argument(
        "OverlayCache::get: generation != 0 keys identify dynamic snapshots, "
        "which cannot be rebuilt from (n, d, seed)");
  }
  const Key key{params.n, params.d, params.k, params.seed};

  std::promise<std::shared_ptr<const graph::Overlay>> promise;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++hits_;
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      auto future = it->second.overlay;
      // Wait outside the lock: the entry may still be building on another
      // thread.
      lock.unlock();
      return future.get();
    }
    ++misses_;
    lru_.push_front(key);
    entries_.emplace(key, Entry{promise.get_future().share(), lru_.begin(), 0});
  }

  // Build outside the lock; other threads asking for the same key wait on
  // the shared_future.
  std::shared_ptr<const graph::Overlay> overlay;
  try {
    overlay =
        std::make_shared<const graph::Overlay>(graph::Overlay::build(params));
  } catch (...) {
    // Propagate the real error to current waiters and drop the entry so a
    // later request retries instead of hitting a poisoned future.
    promise.set_exception(std::current_exception());
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      lru_.erase(it->second.lru_pos);
      entries_.erase(it);
    }
    throw;
  }
  promise.set_value(overlay);

  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      it->second.bytes = overlay->memory_bytes();
      resident_bytes_ += it->second.bytes;
      evict_locked(key);
    }
  }
  return overlay;
}

std::shared_ptr<const graph::Overlay> OverlayCache::get(graph::NodeId n,
                                                        std::uint32_t d,
                                                        std::uint64_t seed) {
  graph::OverlayParams params;
  params.n = n;
  params.d = d;
  params.seed = seed;
  return get(params);
}

void OverlayCache::evict_locked(const Key& incoming) {
  if (max_bytes_ == 0) return;
  // An overlay grows when a reader first builds its G, so re-read every
  // built entry's size.
  for (auto& [key, entry] : entries_) {
    if (entry.bytes == 0) continue;  // still building
    const std::uint64_t now = entry.overlay.get()->memory_bytes();
    resident_bytes_ += now - entry.bytes;
    entry.bytes = now;
  }
  while (resident_bytes_ > max_bytes_ && lru_.size() > 1) {
    const auto victim_pos = std::prev(lru_.end());
    if (*victim_pos == incoming) break;
    auto it = entries_.find(*victim_pos);
    // Never evict an entry that is still building (bytes unknown).
    if (it == entries_.end() || it->second.bytes == 0) break;
    resident_bytes_ -= it->second.bytes;
    entries_.erase(it);
    lru_.erase(victim_pos);
    ++evictions_;
  }
}

OverlayCache::Stats OverlayCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.resident_bytes = resident_bytes_;
  s.entries = entries_.size();
  return s;
}

void OverlayCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  lru_.clear();
  resident_bytes_ = 0;
}

}  // namespace byz::bench_core
