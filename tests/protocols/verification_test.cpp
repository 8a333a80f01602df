#include "protocols/verification.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/bfs.hpp"
#include "graph/categories.hpp"
#include "util/rng.hpp"

namespace byz::proto {
namespace {

using graph::NodeId;
using graph::Overlay;
using graph::OverlayParams;

Overlay sample(NodeId n = 256, std::uint32_t d = 8, std::uint64_t seed = 91) {
  OverlayParams p;
  p.n = n;
  p.d = d;
  p.seed = seed;
  return Overlay::build(p);
}

TEST(ByzPath, HonestEndpointIsZero) {
  const Overlay o = sample();
  const std::vector<bool> byz(o.num_nodes(), false);
  EXPECT_EQ(byz_path_ending_at(o.h_simple(), byz, 0, 10), 0u);
}

TEST(ByzPath, IsolatedByzIsOne) {
  const Overlay o = sample();
  std::vector<bool> byz(o.num_nodes(), false);
  byz[3] = true;
  EXPECT_EQ(byz_path_ending_at(o.h_simple(), byz, 3, 10), 1u);
}

TEST(ByzPath, ChainAlongHEdges) {
  const Overlay o = sample();
  std::vector<bool> byz(o.num_nodes(), false);
  // Walk three H-hops from node 0 marking everything Byzantine.
  NodeId a = 0;
  byz[a] = true;
  NodeId b = o.h_simple().neighbors(a)[0];
  byz[b] = true;
  NodeId c = graph::kInvalidNode;
  for (const NodeId w : o.h_simple().neighbors(b)) {
    if (w != a) {
      c = w;
      break;
    }
  }
  ASSERT_NE(c, graph::kInvalidNode);
  byz[c] = true;
  EXPECT_GE(byz_path_ending_at(o.h_simple(), byz, c, 10), 3u);
  EXPECT_GE(byz_path_ending_at(o.h_simple(), byz, a, 10), 3u);
}

TEST(Verifier, CheckBallSizesMatchOverlay) {
  const Overlay o = sample(256, 8);
  const std::vector<bool> byz(o.num_nodes(), false);
  const Verifier ver(o, byz, {});
  // step 1 -> |B_H(v,1)| = 1 + deg_H; step >= k-1 caps at |B_H(v,k-1)|.
  for (NodeId v = 0; v < 16; ++v) {
    EXPECT_EQ(ver.check_ball_size(v, 1),
              1u + o.h_simple().degree(v));
    const auto bfs = graph::bfs_distances(o.h_simple(), v, 2);
    const auto within2 = static_cast<std::uint64_t>(std::count_if(
        bfs.begin(), bfs.end(), [](std::uint32_t d) { return d <= 2; }));
    EXPECT_EQ(ver.check_ball_size(v, 2), within2);
    EXPECT_EQ(ver.check_ball_size(v, 99), within2);  // k-1 = 2 cap
  }
  // Every k: radius min(t, k-1), at least 1, and the w = witness_width(k)
  // columns hold every radius billed.
  for (const std::uint32_t k : {1u, 2u, 3u, 4u}) {
    OverlayParams p;
    p.n = 200;
    p.d = 6;
    p.k = k;
    p.seed = 97;
    const Overlay ok = Overlay::build(p);
    const Verifier vk(ok, std::vector<bool>(ok.num_nodes(), false), {});
    for (NodeId v = 0; v < 8; ++v) {
      EXPECT_EQ(vk.ball_row(v).size(), graph::witness_width(k));
      const auto bfs = graph::bfs_distances(ok.h_simple(), v, k);
      for (std::uint32_t step = 0; step <= k + 2; ++step) {
        const std::uint32_t r =
            std::max<std::uint32_t>(1, std::min(step, k - 1));
        const auto within = std::count_if(
            bfs.begin(), bfs.end(), [r](std::uint32_t d) { return d <= r; });
        EXPECT_EQ(vk.check_ball_size(v, step),
                  static_cast<std::uint64_t>(within))
            << "k=" << k << " v=" << v << " step=" << step;
      }
    }
  }
}

TEST(Verifier, HonestForwardAlwaysAccepted) {
  const Overlay o = sample();
  const std::vector<bool> byz(o.num_nodes(), false);
  const Verifier ver(o, byz, {});
  sim::Instrumentation instr;
  EXPECT_TRUE(ver.accept(0, 5, 3, 5, false, instr));
  EXPECT_EQ(instr.injections_attempted, 0u);
  EXPECT_GT(instr.verify_messages, 0u);
}

TEST(Verifier, GenerationClaimAlwaysAccepted) {
  const Overlay o = sample();
  std::vector<bool> byz(o.num_nodes(), false);
  byz[0] = true;
  const Verifier ver(o, byz, {});
  sim::Instrumentation instr;
  EXPECT_TRUE(ver.accept(0, 1'000'000, 1, 0, true, instr));
  EXPECT_EQ(instr.injections_accepted, 1u);
  EXPECT_EQ(instr.injections_caught, 0u);
}

TEST(Verifier, MidSubphaseFabricationCaughtWithoutChain) {
  // Lemma 16: an isolated Byzantine node cannot push a fake color at any
  // step t >= 2.
  const Overlay o = sample();
  std::vector<bool> byz(o.num_nodes(), false);
  byz[7] = true;
  const Verifier ver(o, byz, {});
  sim::Instrumentation instr;
  for (std::uint32_t t = 2; t <= 6; ++t) {
    EXPECT_FALSE(ver.accept(7, 999, t, 0, true, instr)) << "t=" << t;
  }
  EXPECT_EQ(instr.injections_caught, 5u);
  EXPECT_EQ(instr.injections_accepted, 0u);
}

TEST(Verifier, ChainOfTwoAllowsStepTwoOnly) {
  const Overlay o = sample();
  std::vector<bool> byz(o.num_nodes(), false);
  const NodeId a = 0;
  const NodeId b = o.h_simple().neighbors(a)[0];
  byz[a] = byz[b] = true;
  const Verifier ver(o, byz, {});
  sim::Instrumentation instr;
  EXPECT_TRUE(ver.accept(a, 999, 2, 0, true, instr));   // needs chain 2: have it
  EXPECT_FALSE(ver.accept(a, 999, 3, 0, true, instr));  // needs chain 3 (= k)
  EXPECT_FALSE(ver.accept(a, 999, 9, 2, true, instr));  // needs chain k
}

TEST(Verifier, ByzCanReplayLegitFreshValue) {
  // A Byzantine node forwarding exactly what an honest node would forward
  // is indistinguishable from honest behavior: accepted, not an injection.
  const Overlay o = sample();
  std::vector<bool> byz(o.num_nodes(), false);
  byz[4] = true;
  const Verifier ver(o, byz, {});
  sim::Instrumentation instr;
  EXPECT_TRUE(ver.accept(4, 6, 4, 6, true, instr));
  EXPECT_EQ(instr.injections_attempted, 0u);
}

TEST(Verifier, DisabledAcceptsEverythingSilently) {
  // Algorithm-1 ablation: no verification traffic, everything believed.
  const Overlay o = sample();
  std::vector<bool> byz(o.num_nodes(), false);
  byz[2] = true;
  VerificationConfig cfg;
  cfg.enabled = false;
  const Verifier ver(o, byz, cfg);
  sim::Instrumentation instr;
  EXPECT_TRUE(ver.accept(2, 12345, 5, 0, true, instr));
  EXPECT_EQ(instr.verify_messages, 0u);
  EXPECT_EQ(instr.injections_accepted, 1u);
}

TEST(Verifier, RewiredModelAtLeastAsPermissive) {
  // The rewired chain model counts Byzantine nodes in the (k-1)-ball, which
  // upper-bounds the strict simple-path model.
  const Overlay o = sample(512, 8, 97);
  util::Xoshiro256 rng(13);
  const auto byz = graph::random_byzantine_mask(o.num_nodes(), 48, rng);
  VerificationConfig strict;
  strict.chain_model = ChainModel::kStrict;
  VerificationConfig rewired;
  rewired.chain_model = ChainModel::kRewired;
  const Verifier vs(o, byz, strict);
  const Verifier vr(o, byz, rewired);
  for (NodeId v = 0; v < o.num_nodes(); ++v) {
    if (!byz[v]) continue;
    EXPECT_GE(vr.usable_chain(v), vs.usable_chain(v)) << "v=" << v;
  }
}

TEST(Verifier, VerificationTrafficScalesWithBall) {
  const Overlay o = sample();
  const std::vector<bool> byz(o.num_nodes(), false);
  const Verifier ver(o, byz, {});
  sim::Instrumentation i1;
  sim::Instrumentation i2;
  (void)ver.accept(0, 3, 1, 3, false, i1);
  (void)ver.accept(0, 3, 2, 3, false, i2);
  EXPECT_GT(i2.verify_messages, i1.verify_messages);  // bigger checked ball
}

TEST(Verifier, BookConformantEqualsPerMessageAccepts) {
  // The flood kernel books a sender's conformant deliveries in one call;
  // that must leave the counters exactly as m accept() calls with
  // c == legit_fresh do — on and off, for honest and Byzantine senders,
  // at steps below, at and past the ball cap k-1 and the chain cap k.
  const Overlay o = sample(512, 12, 97);
  const std::uint32_t k = o.k();
  ASSERT_GE(k, 4u);  // keeps steps 1, 2, k-1, k, k+3 distinct
  util::Xoshiro256 rng(17);
  const auto byz = graph::random_byzantine_mask(o.num_nodes(), 48, rng);
  const auto honest = static_cast<NodeId>(
      std::find(byz.begin(), byz.end(), false) - byz.begin());
  const auto liar = static_cast<NodeId>(
      std::find(byz.begin(), byz.end(), true) - byz.begin());
  ASSERT_LT(liar, o.num_nodes());
  for (const bool enabled : {true, false}) {
    VerificationConfig cfg;
    cfg.enabled = enabled;
    const Verifier ver(o, byz, cfg);
    for (const std::uint32_t step : {1u, 2u, k - 1, k, k + 3}) {
      for (const NodeId sender : {honest, liar}) {
        for (const std::uint64_t m : {0u, 1u, 7u}) {
          sim::Instrumentation bulk;
          bulk.verify_messages = 4;  // booking adds to what is there
          sim::Instrumentation per = bulk;
          ver.book_conformant(sender, step, m, bulk);
          for (std::uint64_t i = 0; i < m; ++i) {
            EXPECT_TRUE(ver.accept(sender, 9, step, 9, byz[sender], per));
          }
          EXPECT_EQ(bulk, per) << "enabled=" << enabled << " step=" << step
                               << " sender=" << sender << " m=" << m;
          EXPECT_EQ(bulk.verify_messages,
                    4 + (enabled ? 2 * m * ver.check_ball_size(sender, step)
                                 : 0))
              << "enabled=" << enabled << " step=" << step;
        }
      }
    }
  }
}

TEST(Verifier, MaskSizeMismatchThrows) {
  const Overlay o = sample(64, 6, 101);
  EXPECT_THROW(Verifier(o, std::vector<bool>(5, false), {}),
               std::invalid_argument);
}

TEST(Verifier, TableSizeMismatchThrows) {
  // One witness_width(k)-wide row per chain entry, and k >= 1.
  const std::vector<std::uint32_t> table(10, 1);
  EXPECT_THROW(Verifier(3, table, std::vector<std::uint8_t>(4, 0), {}),
               std::invalid_argument);
  EXPECT_THROW(Verifier(0, {}, {}, {}), std::invalid_argument);
  EXPECT_NO_THROW(Verifier(3, table, std::vector<std::uint8_t>(5, 0), {}));
  EXPECT_NO_THROW(Verifier(2, table, std::vector<std::uint8_t>(10, 0), {}));
  EXPECT_NO_THROW(Verifier(1, table, std::vector<std::uint8_t>(10, 0), {}));
}

TEST(Verifier, DenseMaskChainsEqualThePerCallResult) {
  // With n/4 Byzantine nodes long strict chains are common, so the build's
  // one DFS mask is reused across many rows, several of them cut off at
  // the k+1 cap; every row must still equal a fresh per-call computation.
  const Overlay o = sample(512, 8, 93);
  util::Xoshiro256 rng(29);
  const auto byz =
      graph::random_byzantine_mask(o.num_nodes(), o.num_nodes() / 4, rng);
  for (const ChainModel model : {ChainModel::kStrict, ChainModel::kRewired}) {
    VerificationConfig cfg;
    cfg.chain_model = model;
    const Verifier ver(o, byz, cfg);
    std::uint64_t capped = 0;
    for (NodeId v = 0; v < o.num_nodes(); ++v) {
      const std::uint32_t expected = verifier_chain_len(o, byz, v, model);
      EXPECT_EQ(ver.usable_chain(v), expected)
          << "model=" << static_cast<int>(model) << " v=" << v;
      if (model == ChainModel::kStrict) {
        EXPECT_EQ(expected, byz_path_ending_at(o.h_simple(), byz, v, o.k() + 1))
            << "v=" << v;
      }
      if (expected >= o.k() + 1) ++capped;
    }
    EXPECT_GT(capped, 0u) << "model=" << static_cast<int>(model);
  }
}

TEST(Verifier, EveryVariantReadsTheOverlayRows) {
  // The phase digest folds ball_row and usable_chain whatever the
  // Verifier's config (BRC runs a disabled one), and the mid-run feed
  // builds its Verifier over its own copy of the table: an enabled, a
  // disabled and a span-built Verifier must all read the overlay's rows
  // and the same chains.
  const Overlay o = sample(256, 8, 95);
  util::Xoshiro256 rng(31);
  const auto byz = graph::random_byzantine_mask(o.num_nodes(), 32, rng);
  const auto counts = o.ball_counts();
  const std::vector<std::uint32_t> table(counts.begin(), counts.end());
  for (const ChainModel model : {ChainModel::kStrict, ChainModel::kRewired}) {
    VerificationConfig on;
    on.chain_model = model;
    VerificationConfig off = on;
    off.enabled = false;
    const Verifier enabled(o, byz, on);
    const Verifier disabled(o, byz, off);
    const Verifier copied(o.k(), table, verifier_chains(o, byz, model), on);
    std::uint64_t chains = 0;
    for (NodeId v = 0; v < o.num_nodes(); ++v) {
      const auto row = o.ball_row(v);
      for (const Verifier* ver : {&enabled, &disabled, &copied}) {
        const auto got = ver->ball_row(v);
        EXPECT_TRUE(std::equal(got.begin(), got.end(), row.begin(), row.end()))
            << "model=" << static_cast<int>(model) << " v=" << v;
        EXPECT_EQ(ver->usable_chain(v), enabled.usable_chain(v))
            << "model=" << static_cast<int>(model) << " v=" << v;
      }
      if (enabled.usable_chain(v) > 0) ++chains;
    }
    EXPECT_EQ(chains, 32u);  // exactly the Byzantine rows carry a chain
  }
}

}  // namespace
}  // namespace byz::proto
