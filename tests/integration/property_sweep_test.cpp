// Parameterized property sweeps over (n, d, seed): structural invariants of
// the overlay and outcome invariants of the protocol that must hold for
// every sampled world, not just hand-picked ones.
#include <gtest/gtest.h>

#include <cmath>

#include "graph/bfs.hpp"
#include "graph/categories.hpp"
#include "graph/connectivity.hpp"
#include "graph/metrics.hpp"
#include "protocols/fastpath.hpp"
#include "sim/runner.hpp"

namespace byz {
namespace {

using graph::NodeId;
using graph::Overlay;
using graph::OverlayParams;

struct World {
  NodeId n;
  std::uint32_t d;
  std::uint64_t seed;
};

std::string world_name(const ::testing::TestParamInfo<World>& info) {
  std::string name = "n";
  name += std::to_string(info.param.n);
  name += "_d";
  name += std::to_string(info.param.d);
  name += "_s";
  name += std::to_string(info.param.seed);
  return name;
}

class OverlayProperties : public ::testing::TestWithParam<World> {
 protected:
  Overlay build() const {
    const World w = GetParam();
    OverlayParams p;
    p.n = w.n;
    p.d = w.d;
    p.seed = w.seed;
    return Overlay::build(p);
  }
};

TEST_P(OverlayProperties, HIsExactlyDRegularMultigraph) {
  const Overlay o = build();
  EXPECT_TRUE(o.h().is_regular(GetParam().d));
}

TEST_P(OverlayProperties, HConnected) {
  const Overlay o = build();
  EXPECT_TRUE(graph::is_connected(o.h_simple()));
}

TEST_P(OverlayProperties, GSymmetric) {
  const Overlay o = build();
  for (NodeId v = 0; v < o.num_nodes(); ++v) {
    for (const NodeId w : o.g().neighbors(v)) {
      EXPECT_TRUE(o.g().has_edge(w, v));
    }
  }
}

TEST_P(OverlayProperties, GRowDistancesExactAndWithinK) {
  const Overlay o = build();
  graph::RowScratch scratch;
  for (NodeId v = 0; v < o.num_nodes(); ++v) {
    const auto dist = graph::bfs_distances(o.h_simple(), v, o.k());
    for (const graph::BallEntry& e : o.g_row(v, scratch)) {
      EXPECT_EQ(e.dist, dist[e.node]) << "v=" << v << " w=" << e.node;
      EXPECT_GE(e.dist, 1u);
      EXPECT_LE(e.dist, o.k());
    }
  }
}

TEST_P(OverlayProperties, HSubsetOfG) {
  const Overlay o = build();
  for (NodeId v = 0; v < o.num_nodes(); ++v) {
    for (const NodeId w : o.h_simple().neighbors(v)) {
      EXPECT_TRUE(o.g().has_edge(v, w));
    }
  }
}

TEST_P(OverlayProperties, SmallWorldClusteringGain) {
  const Overlay o = build();
  const double ch = graph::average_clustering(o.h_simple(), 128, 1);
  const double cg = graph::average_clustering(o.g(), 128, 1);
  EXPECT_GT(cg, ch);
}

INSTANTIATE_TEST_SUITE_P(
    Worlds, OverlayProperties,
    ::testing::Values(World{128, 4, 1}, World{256, 6, 2}, World{512, 8, 3},
                      World{1024, 6, 4}, World{300, 8, 5}, World{777, 6, 6},
                      World{2048, 8, 7}, World{129, 4, 8}),
    world_name);

// ---------------------------------------------------------------------------

class ProtocolProperties : public ::testing::TestWithParam<World> {};

TEST_P(ProtocolProperties, CleanRunDecidesEverywhereInBand) {
  const World w = GetParam();
  OverlayParams p;
  p.n = w.n;
  p.d = w.d;
  p.seed = w.seed;
  const Overlay o = Overlay::build(p);
  const auto r = proto::run_basic_counting(o, w.seed ^ 0x5EED);
  const auto acc = proto::summarize_accuracy(r, w.n);
  EXPECT_EQ(acc.decided, acc.honest);
  EXPECT_GT(acc.frac_in_band, 0.9);
  // Every estimate positive and below the auto phase cap.
  for (const auto e : r.estimate) {
    EXPECT_GE(e, 1u);
    EXPECT_LE(e, proto::resolve_max_phase(o, proto::ProtocolConfig{}));
  }
}

TEST_P(ProtocolProperties, ByzantineRunInvariants) {
  const World w = GetParam();
  sim::TrialConfig cfg;
  cfg.overlay.n = w.n;
  cfg.overlay.d = w.d;
  cfg.delta = 0.5;
  cfg.strategy = adv::StrategyKind::kAdaptive;
  cfg.seed = w.seed;
  const auto r = sim::run_trial(cfg);
  const auto& run = r.run;
  const NodeId n = w.n;
  // Status partition is total and consistent with estimates.
  std::uint64_t byz = 0;
  for (NodeId v = 0; v < n; ++v) {
    switch (run.status[v]) {
      case proto::NodeStatus::kByzantine:
        ++byz;
        break;
      case proto::NodeStatus::kDecided:
        EXPECT_GE(run.estimate[v], 1u);
        break;
      case proto::NodeStatus::kCrashed:
      case proto::NodeStatus::kUndecided:
        EXPECT_EQ(run.estimate[v], 0u);
        break;
      case proto::NodeStatus::kDeparted:
        ADD_FAILURE() << "static runs cannot produce kDeparted";
        break;
    }
  }
  EXPECT_EQ(byz, r.byz_count);
  // Accounting sanity (setup traffic always flows; token traffic only if
  // anyone survived the crash rule — at d=8 the G-ball is large enough
  // that crash attacks can wipe small networks, which is legitimate).
  EXPECT_GT(run.instr.total_messages(), 0u);
  EXPECT_EQ(run.flood_rounds, run.instr.flood_rounds);
  EXPECT_LE(run.instr.injections_accepted + run.instr.injections_caught,
            run.instr.injections_attempted +
                run.instr.injections_accepted);  // caught+accepted <= attempts
}

TEST_P(ProtocolProperties, WrongDeciderFractionBelowEpsilonBand) {
  // Lemma 11 flavor: in the clean run with ε = 0.1, the fraction of honest
  // nodes deciding "too early" (below half the typical estimate) is tiny.
  const World w = GetParam();
  OverlayParams p;
  p.n = w.n;
  p.d = w.d;
  p.seed = w.seed * 31;
  const Overlay o = Overlay::build(p);
  proto::ScheduleConfig sched;
  sched.epsilon = 0.1;
  const auto r = proto::run_basic_counting(o, w.seed ^ 0xABCD, sched);
  std::vector<std::uint32_t> est;
  for (const auto e : r.estimate) est.push_back(e);
  std::sort(est.begin(), est.end());
  const std::uint32_t typical = est[est.size() / 2];
  std::uint64_t early = 0;
  for (const auto e : est) {
    if (e * 2 < typical) ++early;
  }
  EXPECT_LT(static_cast<double>(early), 0.1 * static_cast<double>(w.n));
}

INSTANTIATE_TEST_SUITE_P(
    Worlds, ProtocolProperties,
    ::testing::Values(World{256, 6, 11}, World{512, 8, 12}, World{1024, 8, 13},
                      World{2048, 6, 14}, World{400, 8, 15},
                      World{1500, 6, 16}),
    world_name);

}  // namespace
}  // namespace byz
