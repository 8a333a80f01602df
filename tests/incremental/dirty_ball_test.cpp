// The dirty-ball contract: after ANY interleaving of joins, leaves, and
// rewires, the incremental snapshot — which re-runs BFS only for nodes the
// tracker marked — must be bitwise identical to the full rebuild. The
// randomized property suite replays 200+ seeded op traces against that
// oracle; the focused tests pin the tracker mechanics (attachment, dirty
// accounting, drain).
#include "incremental/dirty_ball.hpp"

#include <gtest/gtest.h>

#include "incremental/engine.hpp"

namespace byz::incremental {
namespace {

using dynamics::MutableOverlay;

void apply_random_ops(MutableOverlay& overlay, util::Xoshiro256& rng,
                      std::uint32_t ops) {
  for (std::uint32_t i = 0; i < ops; ++i) {
    switch (rng.below(3)) {
      case 0:
        overlay.join(rng);
        break;
      case 1:
        if (overlay.num_alive() > 8) {
          overlay.leave(overlay.random_alive(rng));
        } else {
          overlay.join(rng);
        }
        break;
      default:
        overlay.rewire(overlay.random_alive(rng), rng);
        break;
    }
  }
}

TEST(DirtyBall, IncrementalBallsBitwiseEqualFullRebuildOn200SeededTraces) {
  constexpr std::uint32_t kTraces = 200;
  for (std::uint32_t trace = 1; trace <= kTraces; ++trace) {
    // Vary size, degree (and with it the dirty radius k-1), and op mix.
    const graph::NodeId n0 = 24 + (trace * 7) % 120;
    const std::uint32_t d = 4 + 2 * (trace % 3);  // 4, 6, 8
    MutableOverlay overlay(n0, d, 0, 1000 + trace);
    IncrementalEngine engine(overlay, {/*verify_against_full=*/false});
    util::Xoshiro256 rng(trace);

    const std::uint32_t rounds = 1 + trace % 3;
    for (std::uint32_t round = 0; round <= rounds; ++round) {
      if (round > 0) apply_random_ops(overlay, rng, 1 + rng.below(24));
      const auto full = overlay.snapshot();
      const auto inc = engine.snapshot();
      ASSERT_EQ(full.dense_to_stable, inc.dense_to_stable)
          << "trace " << trace << " round " << round;
      ASSERT_TRUE(overlays_identical(full.overlay, inc.overlay))
          << "trace " << trace << " round " << round << " (n0=" << n0
          << ", d=" << d << ")";
    }
  }
}

TEST(DirtyBall, TracksOnlyTheSpliceNeighborhood) {
  MutableOverlay overlay(512, 6, 0, 9);
  IncrementalEngine engine(overlay);
  (void)engine.snapshot();  // bootstrap: tracker drained
  EXPECT_EQ(engine.tracker().dirty_count(), 0u);

  util::Xoshiro256 rng(3);
  overlay.join(rng);
  const auto& tracker = engine.tracker();
  EXPECT_EQ(tracker.splices_seen(), 1u);
  EXPECT_GT(tracker.dirty_count(), 0u);
  // One join touches the joiner plus d anchors/successors; their (k-1)-
  // neighborhood is a vanishing fraction of 512 nodes.
  EXPECT_LT(tracker.dirty_count(), 256u);

  const auto before = engine.stats().balls_reused;
  (void)engine.snapshot();
  EXPECT_GT(engine.stats().balls_reused, before);
  EXPECT_EQ(engine.tracker().dirty_count(), 0u);  // drained again
}

TEST(DirtyBall, DepartedNodesAreMarkedAndDropped) {
  MutableOverlay overlay(64, 6, 0, 5);
  IncrementalEngine engine(overlay);
  (void)engine.snapshot();
  const graph::NodeId victim = 7;
  overlay.leave(victim);
  EXPECT_TRUE(engine.tracker().is_dirty(victim));
  const auto snap = engine.snapshot();
  for (const auto stable : snap.dense_to_stable) EXPECT_NE(stable, victim);
}

TEST(DirtyBall, DetachesOnDestruction) {
  MutableOverlay overlay(64, 6, 0, 5);
  {
    DirtyBallTracker tracker(overlay);
    EXPECT_EQ(overlay.observer(), &tracker);
  }
  EXPECT_EQ(overlay.observer(), nullptr);
  // Splices after detach must not touch freed state.
  util::Xoshiro256 rng(1);
  overlay.join(rng);
  EXPECT_EQ(overlay.num_alive(), 65u);
}

TEST(DirtyBall, MarkAllDirtyCoversTheAliveSet) {
  MutableOverlay overlay(64, 6, 0, 5);
  DirtyBallTracker tracker(overlay);
  tracker.mark_all_dirty();
  EXPECT_EQ(tracker.dirty_count(), 64u);
  tracker.clear();
  EXPECT_EQ(tracker.dirty_count(), 0u);
  EXPECT_EQ(tracker.splices_seen(), 0u);
}

}  // namespace
}  // namespace byz::incremental
