// IncrementalEngine mechanics: bootstrap equivalence with the static
// build, ball-reuse accounting, the verify_against_full debug mode, and
// behavior with incremental reuse disabled (full rebuilds through the same
// assembly path, the tracker still reporting what changed).
#include "incremental/engine.hpp"

#include <gtest/gtest.h>

#include "graph/small_world.hpp"

namespace byz::incremental {
namespace {

using dynamics::MutableOverlay;

TEST(IncrementalEngine, BootstrapSnapshotMatchesTheFullRebuild) {
  MutableOverlay overlay(256, 6, 0, 42);
  IncrementalEngine engine(overlay);
  const auto inc = engine.snapshot();
  const auto full = overlay.snapshot();
  EXPECT_TRUE(overlays_identical(inc.overlay, full.overlay));
  EXPECT_EQ(engine.stats().full_rebuilds, 1u);
  EXPECT_EQ(engine.stats().last_recomputed, 256u);
  EXPECT_EQ(engine.stats().last_reused, 0u);
}

TEST(IncrementalEngine, ReusesCleanBallsAcrossEpochs) {
  MutableOverlay overlay(1024, 6, 0, 7);
  IncrementalEngine engine(overlay);
  (void)engine.snapshot();
  util::Xoshiro256 rng(3);
  overlay.join(rng);
  overlay.leave(overlay.random_alive(rng));
  // The snapshot recomputes exactly the alive balls the tracker marked.
  std::uint64_t dirty_alive = 0;
  for (const auto stable : overlay.alive_nodes()) {
    if (engine.tracker().is_dirty(stable)) ++dirty_alive;
  }
  const auto snap = engine.snapshot();
  const auto& stats = engine.stats();
  EXPECT_EQ(stats.snapshots, 2u);
  EXPECT_EQ(stats.full_rebuilds, 1u);
  EXPECT_GT(stats.last_reused, stats.last_recomputed);
  EXPECT_TRUE(overlays_identical(snap.overlay, overlay.snapshot().overlay));
  EXPECT_EQ(dirty_alive, stats.last_recomputed);
}

TEST(IncrementalEngine, VerifyModeCrossChecksEverySnapshot) {
  MutableOverlay overlay(192, 6, 0, 11);
  IncrementalEngine engine(overlay, {/*verify_against_full=*/true});
  util::Xoshiro256 rng(5);
  for (int round = 0; round < 3; ++round) {
    overlay.join(rng);
    overlay.rewire(overlay.random_alive(rng), rng);
    EXPECT_NO_THROW((void)engine.snapshot());
  }
  EXPECT_EQ(engine.stats().verified, 3u);
}

TEST(IncrementalEngine, SaturatedBallsCarryTheirSizeOutToRadiusK) {
  // At n0 = 10 and k = 6 every ball holds the whole graph before radius
  // w = witness_width(k) = 5, so every count row must carry n out to its
  // last column r = w: through the engine's own BFS on the bootstrap and
  // on each dirty recompute. Verify mode compares every snapshot with the
  // full rebuild, counts included.
  MutableOverlay overlay(10, 4, 6, 17);
  IncrementalEngine engine(overlay, {/*verify_against_full=*/true});
  util::Xoshiro256 rng(9);
  for (int round = 0; round < 4; ++round) {
    const auto snap = engine.snapshot();
    for (NodeId v = 0; v < snap.overlay.num_nodes(); ++v) {
      EXPECT_EQ(snap.overlay.ball_row(v).back(), snap.overlay.num_nodes())
          << "round " << round << " v=" << v;
    }
    overlay.join(rng);
    overlay.leave(overlay.random_alive(rng));
  }
  EXPECT_EQ(engine.stats().verified, 4u);
}

TEST(IncrementalEngine, OverlaysIdenticalDetectsDifferences) {
  graph::OverlayParams params;
  params.n = 128;
  params.d = 6;
  params.seed = 1;
  const auto a = graph::Overlay::build(params);
  EXPECT_TRUE(overlays_identical(a, a));
  params.seed = 2;
  const auto b = graph::Overlay::build(params);
  EXPECT_FALSE(overlays_identical(a, b));
}

TEST(IncrementalEngine, OverlaysIdenticalComparesBallCounts) {
  // Rebuild `a` through build_with_balls from its own arrays: identical.
  // Then alter one ball count and nothing else: no longer identical.
  graph::OverlayParams params;
  params.n = 128;
  params.d = 6;
  params.seed = 3;
  const auto a = graph::Overlay::build(params);
  const auto rebuild = [&](std::vector<std::uint32_t> counts) {
    std::vector<std::uint8_t> g_dist;
    for (NodeId v = 0; v < a.num_nodes(); ++v) {
      const auto dists = a.g_dists(v);
      g_dist.insert(g_dist.end(), dists.begin(), dists.end());
    }
    return graph::Overlay::build_with_balls(params, a.h(), a.g(),
                                            std::move(g_dist),
                                            std::move(counts));
  };
  const auto counts = a.ball_counts();
  std::vector<std::uint32_t> same(counts.begin(), counts.end());
  EXPECT_TRUE(overlays_identical(a, rebuild(same)));
  std::vector<std::uint32_t> altered = same;
  altered[5 * graph::witness_width(a.k())] += 1;
  EXPECT_FALSE(overlays_identical(a, rebuild(altered)));
}

}  // namespace
}  // namespace byz::incremental
