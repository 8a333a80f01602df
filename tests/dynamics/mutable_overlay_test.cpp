// Invariants of the delta-applied overlay: exact d-regularity,
// connectivity, and small-world structure must survive ANY sequence of
// joins, leaves and bursts, and a snapshot taken before any operation must
// reproduce the static Overlay::build sample bit for bit.
#include "dynamics/mutable_overlay.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "graph/bfs.hpp"
#include "graph/connectivity.hpp"
#include "util/rng.hpp"

namespace byz::dynamics {
namespace {

using graph::NodeId;

/// Structural equality of two CSR graphs (same nodes, same sorted
/// adjacency, multiplicities included).
bool same_graph(const graph::Graph& a, const graph::Graph& b) {
  if (a.num_nodes() != b.num_nodes() || a.num_slots() != b.num_slots()) {
    return false;
  }
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    const auto na = a.neighbors(v);
    const auto nb = b.neighbors(v);
    if (!std::equal(na.begin(), na.end(), nb.begin(), nb.end())) return false;
  }
  return true;
}

void expect_invariants(const MutableOverlay& overlay) {
  const auto snap = overlay.snapshot();
  const auto& o = snap.overlay;
  EXPECT_EQ(o.num_nodes(), overlay.num_alive());
  EXPECT_TRUE(o.h().is_regular(overlay.d()))
      << "H must stay exactly d-regular";
  EXPECT_TRUE(graph::is_connected(o.h_simple()))
      << "the ring union must stay connected";
  EXPECT_EQ(o.k(), overlay.k());
  graph::RowScratch scratch;
  for (NodeId v = 0; v < o.num_nodes(); ++v) {
    const auto dist = graph::bfs_distances(o.h_simple(), v);
    for (const graph::BallEntry& e : o.g_row(v, scratch)) {
      EXPECT_EQ(e.dist, dist[e.node]) << "v=" << v << " w=" << e.node;
      EXPECT_GE(e.dist, 1u);
      EXPECT_LE(e.dist, o.k());
    }
  }
  // The dense mapping is a sorted bijection onto the alive set.
  ASSERT_EQ(snap.dense_to_stable.size(), overlay.num_alive());
  EXPECT_TRUE(std::is_sorted(snap.dense_to_stable.begin(),
                             snap.dense_to_stable.end()));
  for (const NodeId stable : snap.dense_to_stable) {
    EXPECT_TRUE(overlay.is_alive(stable));
    EXPECT_EQ(snap.dense_to_stable[snap.to_dense(stable)], stable);
  }
}

TEST(MutableOverlay, BootstrapSnapshotMatchesStaticBuild) {
  for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
    graph::OverlayParams params;
    params.n = 200;
    params.d = 6;
    params.seed = seed;
    const auto expect = graph::Overlay::build(params);

    const MutableOverlay dyn(200, 6, 0, seed);
    const auto snap = dyn.snapshot();
    EXPECT_TRUE(same_graph(snap.overlay.h(), expect.h())) << "seed " << seed;
    EXPECT_TRUE(same_graph(snap.overlay.g(), expect.g())) << "seed " << seed;
    EXPECT_EQ(snap.overlay.k(), expect.k());
  }
}

TEST(MutableOverlay, InvariantsSurviveChurn) {
  MutableOverlay overlay(64, 6, 0, 3);
  util::Xoshiro256 rng(99);
  expect_invariants(overlay);

  // Growth burst.
  for (int i = 0; i < 40; ++i) overlay.join(rng);
  EXPECT_EQ(overlay.num_alive(), 104u);
  expect_invariants(overlay);

  // Departure burst (half the network), targeting a mixed id range.
  for (int i = 0; i < 52; ++i) overlay.leave(overlay.random_alive(rng));
  EXPECT_EQ(overlay.num_alive(), 52u);
  expect_invariants(overlay);

  // Interleaved trickle.
  for (int i = 0; i < 30; ++i) {
    if (rng.coin()) {
      overlay.join(rng);
    } else {
      overlay.leave(overlay.random_alive(rng));
    }
  }
  expect_invariants(overlay);
}

TEST(MutableOverlay, JoinAtWrapsTheAnchor) {
  MutableOverlay overlay(32, 6, 0, 5);
  const NodeId victim = 4;
  const std::vector<NodeId> anchors(overlay.num_cycles(), victim);
  const NodeId joiner = overlay.join_at(anchors);
  EXPECT_EQ(joiner, 32u);
  for (std::uint32_t c = 0; c < overlay.num_cycles(); ++c) {
    EXPECT_EQ(overlay.successor(c, victim), joiner);
    EXPECT_EQ(overlay.predecessor(c, joiner), victim);
  }
  const auto snap = overlay.snapshot();
  const NodeId dv = snap.to_dense(victim);
  const NodeId dj = snap.to_dense(joiner);
  EXPECT_TRUE(snap.overlay.h().has_edge(dv, dj));
  EXPECT_EQ(snap.overlay.h().degree(dj), overlay.d());
}

TEST(MutableOverlay, RejectsInvalidOperations) {
  EXPECT_THROW(MutableOverlay(2, 6, 0, 1), std::invalid_argument);
  EXPECT_THROW(MutableOverlay(16, 5, 0, 1), std::invalid_argument);
  EXPECT_THROW(MutableOverlay(16, 2, 0, 1), std::invalid_argument);

  MutableOverlay overlay(3, 4, 0, 1);
  EXPECT_THROW(overlay.leave(0), std::invalid_argument);  // floor of 3
  util::Xoshiro256 rng(1);
  const NodeId v = overlay.join(rng);
  overlay.leave(v);  // back to 3: allowed
  EXPECT_THROW(overlay.leave(v), std::invalid_argument);  // already dead
  EXPECT_THROW(overlay.join_at(std::vector<NodeId>{0}), std::invalid_argument);
  const std::vector<NodeId> dead_anchor(overlay.num_cycles(), v);
  EXPECT_THROW(overlay.join_at(dead_anchor), std::invalid_argument);
}

TEST(MutableOverlay, StableIdsAreNeverReused) {
  MutableOverlay overlay(8, 4, 0, 2);
  util::Xoshiro256 rng(5);
  const NodeId a = overlay.join(rng);
  overlay.leave(a);
  const NodeId b = overlay.join(rng);
  EXPECT_NE(a, b);
  EXPECT_EQ(b, a + 1);
  EXPECT_FALSE(overlay.is_alive(a));
  EXPECT_TRUE(overlay.is_alive(b));
}

}  // namespace
}  // namespace byz::dynamics
