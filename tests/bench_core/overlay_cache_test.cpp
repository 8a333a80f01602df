#include "bench_core/overlay_cache.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "dynamics/mutable_overlay.hpp"

namespace byz::bench_core {
namespace {

TEST(OverlayCache, MissThenHitReturnsSameInstance) {
  OverlayCache cache;
  const auto a = cache.get(256, 6, 42);
  const auto b = cache.get(256, 6, 42);
  EXPECT_EQ(a.get(), b.get());

  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.resident_bytes, 0u);
}

TEST(OverlayCache, DistinctKeysBuildDistinctOverlays) {
  OverlayCache cache;
  const auto a = cache.get(256, 6, 1);
  const auto b = cache.get(256, 6, 2);   // different seed
  const auto c = cache.get(256, 8, 1);   // different degree
  const auto d = cache.get(512, 6, 1);   // different size
  const std::set<const graph::Overlay*> distinct{a.get(), b.get(), c.get(),
                                                 d.get()};
  EXPECT_EQ(distinct.size(), 4u);
  EXPECT_EQ(cache.stats().misses, 4u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(OverlayCache, BuiltOverlayMatchesDirectBuild) {
  OverlayCache cache;
  const auto cached = cache.get(256, 6, 42);
  graph::OverlayParams params;
  params.n = 256;
  params.d = 6;
  params.seed = 42;
  const auto direct = graph::Overlay::build(params);
  EXPECT_EQ(cached->num_nodes(), direct.num_nodes());
  EXPECT_EQ(cached->g().num_edges(), direct.g().num_edges());
  EXPECT_EQ(cached->k(), direct.k());
}

TEST(OverlayCache, ConcurrentSameKeyBuildsOnce) {
  OverlayCache cache;
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const graph::Overlay>> seen(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back(
          [&cache, &seen, t] { seen[t] = cache.get(512, 6, 7); });
    }
    for (auto& th : threads) th.join();
  }
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[0].get(), seen[t].get());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(kThreads - 1));
  EXPECT_EQ(stats.entries, 1u);
}

TEST(OverlayCache, EvictsLeastRecentlyUsedPastByteBound) {
  // Tiny budget: after the first overlay lands, inserting a second must
  // evict the older one (LRU), but a live shared_ptr stays valid.
  OverlayCache cache(/*max_bytes=*/1);
  const auto a = cache.get(256, 6, 1);
  const auto b = cache.get(256, 6, 2);
  const auto stats = cache.stats();
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_EQ(a->num_nodes(), 256u);  // still usable after eviction
  // The evicted key re-builds (miss), not a stale hit.
  const auto a2 = cache.get(256, 6, 1);
  EXPECT_EQ(a2->num_nodes(), 256u);
  EXPECT_EQ(cache.stats().misses, 3u);
}

TEST(OverlayCache, CountsAGBuiltAfterInsertion) {
  // The bound holds one overlay with its G built, and two without. Once a
  // reader builds the first entry's G, inserting a second must evict it.
  graph::OverlayParams params;
  params.n = 256;
  params.d = 6;
  params.seed = 1;
  const auto probe = graph::Overlay::build(params);
  const std::uint64_t eager = probe.memory_bytes();
  (void)probe.g();
  const std::uint64_t materialized = probe.memory_bytes();
  ASSERT_GT(materialized, 2 * eager);

  OverlayCache cache(materialized);
  const auto a = cache.get(256, 6, 1);
  EXPECT_EQ(cache.stats().resident_bytes, eager);
  (void)a->g();
  (void)cache.get(256, 6, 2);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_LT(stats.resident_bytes, materialized);
}

TEST(OverlayCache, SnapshotGenerationNeverAliasesTheStaticKey) {
  // A dynamic epoch snapshot carries the same (n, d, seed) as the static
  // sample it evolved from, so get() must refuse to fabricate one from its
  // generation-tagged params.
  OverlayCache cache;
  dynamics::MutableOverlay dyn(96, 6, 0, 42);
  util::Xoshiro256 rng(7);
  dyn.leave(dyn.join(rng) - 1);  // back to n = 96, a different edge set
  const auto snap = dyn.snapshot();
  ASSERT_EQ(snap.overlay.num_nodes(), 96u);
  ASSERT_NE(snap.overlay.params().generation, 0u);
  EXPECT_THROW((void)cache.get(snap.overlay.params()), std::invalid_argument);
}

TEST(OverlayCache, ClearDropsEntries) {
  OverlayCache cache;
  (void)cache.get(256, 6, 1);
  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  (void)cache.get(256, 6, 1);
  EXPECT_EQ(cache.stats().misses, 2u);
}

}  // namespace
}  // namespace byz::bench_core
