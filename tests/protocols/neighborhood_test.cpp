#include "protocols/neighborhood.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <utility>

#include "adversary/strategies.hpp"
#include "graph/categories.hpp"
#include "graph/tree_like.hpp"
#include "sim/world.hpp"
#include "util/rng.hpp"

namespace byz::proto {
namespace {

using graph::NodeId;
using graph::Overlay;
using graph::OverlayParams;

Overlay sample(NodeId n = 512, std::uint32_t d = 8, std::uint64_t seed = 61) {
  OverlayParams p;
  p.n = n;
  p.d = d;
  p.seed = seed;
  return Overlay::build(p);
}

TEST(ClaimSet, TruthfulByDefault) {
  const Overlay o = sample(64, 6);
  ClaimSet claims(o);
  for (NodeId v = 0; v < o.num_nodes(); ++v) {
    EXPECT_TRUE(claims.truthful(v));
    const auto c = claims.claimed(v);
    const auto g = o.g().neighbors(v);
    ASSERT_EQ(c.size(), g.size());
  }
}

TEST(ClaimSet, OverrideSortsAndDedups) {
  const Overlay o = sample(64, 6);
  ClaimSet claims(o);
  claims.set_claim(3, {9, 1, 9, 5});
  const auto c = claims.claimed(3);
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c[0], 1u);
  EXPECT_EQ(c[1], 5u);
  EXPECT_EQ(c[2], 9u);
  EXPECT_FALSE(claims.truthful(3));
}

TEST(Conflict, NoneWhenEveryoneTruthful) {
  const Overlay o = sample(128, 6);
  const ClaimSet claims(o);
  for (NodeId v = 0; v < o.num_nodes(); ++v) {
    EXPECT_FALSE(detects_conflict(claims, v)) << "v=" << v;
  }
}

TEST(Conflict, HiddenEdgeDetectedByWitness) {
  // u hides its edge to w; any common G-neighbor v (and w itself) sees the
  // contradiction with w's truthful claim.
  const Overlay o = sample(128, 6);
  ClaimSet claims(o);
  const NodeId u = 0;
  const auto u_nbrs = o.g().neighbors(u);
  const NodeId w = u_nbrs[0];
  std::vector<NodeId> lie(u_nbrs.begin(), u_nbrs.end());
  lie.erase(std::remove(lie.begin(), lie.end(), w), lie.end());
  claims.set_claim(u, lie);
  EXPECT_TRUE(detects_conflict(claims, w));  // w's own channel is denied
  // A common neighbor also catches it via the pairwise rule.
  for (const NodeId v : o.g().neighbors(u)) {
    if (v != w && o.g().has_edge(v, w)) {
      EXPECT_TRUE(detects_conflict(claims, v));
      break;
    }
  }
}

TEST(Conflict, FabricatedEdgeDetected) {
  // u claims an edge to honest y (another G-neighbor of v) that does not
  // exist; y's truthful claim contradicts it at any v seeing both.
  const Overlay o = sample(128, 6);
  ClaimSet claims(o);
  const NodeId v = 7;
  const auto v_nbrs = o.g().neighbors(v);
  // Find u, y ∈ N(v) that are NOT adjacent in G.
  NodeId u = graph::kInvalidNode;
  NodeId y = graph::kInvalidNode;
  for (std::size_t a = 0; a < v_nbrs.size() && u == graph::kInvalidNode; ++a) {
    for (std::size_t b = 0; b < v_nbrs.size(); ++b) {
      if (a != b && !o.g().has_edge(v_nbrs[a], v_nbrs[b])) {
        u = v_nbrs[a];
        y = v_nbrs[b];
        break;
      }
    }
  }
  ASSERT_NE(u, graph::kInvalidNode) << "need a non-adjacent pair in N(v)";
  const auto u_nbrs = o.g().neighbors(u);
  std::vector<NodeId> lie(u_nbrs.begin(), u_nbrs.end());
  lie.push_back(y);
  claims.set_claim(u, lie);
  EXPECT_TRUE(detects_conflict(claims, v));
}

TEST(Conflict, FabricatedIdOutsideBallNotDetectable) {
  // Claims about ids nobody can see (beyond the k-ball) are unverifiable;
  // adding one must NOT crash anyone (Byzantine nodes "fake the presence
  // of non-existing nodes" — the protocol survives it).
  const Overlay o = sample(128, 6);
  ClaimSet claims(o);
  const NodeId u = 0;
  const auto u_nbrs = o.g().neighbors(u);
  std::vector<NodeId> lie(u_nbrs.begin(), u_nbrs.end());
  lie.push_back(o.num_nodes() + 1000);  // fabricated id
  claims.set_claim(u, lie);
  for (NodeId v = 0; v < o.num_nodes(); ++v) {
    EXPECT_FALSE(detects_conflict(claims, v));
  }
}

/// A random lie for u: truthful, empty (E10's crash-maximizing lie), or the
/// truth with real neighbors dropped and 2-hop, random and fabricated
/// (>= n) ids added, each edit present or not at random.
std::optional<std::vector<NodeId>> random_lie(const Overlay& o, NodeId u,
                                              util::Xoshiro256& rng) {
  const auto& g = o.g();
  const NodeId n = o.num_nodes();
  const auto real = g.neighbors(u);
  switch (rng.below(4)) {
    case 0:
      return std::nullopt;
    case 1:
      return std::vector<NodeId>{};
    default:
      break;
  }
  std::vector<NodeId> lie;
  const bool drop = rng.below(2) == 0;
  for (const NodeId w : real) {
    if (!drop || rng.below(4) != 0) lie.push_back(w);
  }
  if (rng.below(2) == 0) {  // 2-hop ids: visible to the common neighbors
    for (int i = 0; i < 3; ++i) {
      const auto mid = g.neighbors(real[rng.below(real.size())]);
      lie.push_back(mid[rng.below(mid.size())]);
    }
  }
  if (rng.below(2) == 0) {  // random ids, possibly u itself
    for (int i = 0; i < 3; ++i) {
      lie.push_back(static_cast<NodeId>(rng.below(n)));
    }
  }
  if (rng.below(2) == 0) {  // fabricated ids nobody can see
    for (int i = 0; i < 3; ++i) {
      lie.push_back(n + static_cast<NodeId>(rng.below(1000)));
    }
  }
  return lie;
}

TEST(CrashSet, MatchesReferenceConflictDetection) {
  // The liar-diff-set rule must agree exactly with running the full
  // pairwise rule at every honest node, and count crashes and setup traffic
  // exactly as one count_setup_list call per G-edge does.
  util::Xoshiro256 rng(5);
  constexpr std::uint32_t kDegrees[] = {4, 6, 8};
  std::uint64_t crashed_total = 0;
  std::uint64_t spared_total = 0;
  for (std::uint64_t trial = 0; trial < 51; ++trial) {
    const auto n = static_cast<NodeId>(128 + rng.below(385));
    const Overlay o = sample(n, kDegrees[trial % 3], 1000 + trial);
    const auto& g = o.g();
    auto byz = graph::random_byzantine_mask(
        n, static_cast<NodeId>(4 + rng.below(9)), rng);
    std::vector<std::optional<std::vector<NodeId>>> lies(n);
    for (NodeId u = 0; u < n; ++u) {
      if (byz[u]) lies[u] = random_lie(o, u, rng);
    }
    // Liar pairs that lie consistently about their mutual edge: a G-edge
    // both deny, or a 2-hop non-edge both claim. Their common neighbors
    // see agreeing claims and must not crash on that pair.
    for (int p = 0; p < 3; ++p) {
      const auto u = static_cast<NodeId>(rng.below(n));
      const auto nbrs = g.neighbors(u);
      NodeId w = nbrs[rng.below(nbrs.size())];
      const bool deny = rng.below(2) == 0;
      if (!deny) {
        const auto far = g.neighbors(w);
        w = far[rng.below(far.size())];
        if (w == u || g.has_edge(u, w)) continue;
      }
      for (const auto& [a, b] : {std::pair{u, w}, std::pair{w, u}}) {
        byz[a] = true;
        if (!lies[a]) {
          const auto truth = g.neighbors(a);
          lies[a].emplace(truth.begin(), truth.end());
        }
        auto& lie = *lies[a];
        if (deny) {
          std::erase(lie, b);
        } else {
          lie.push_back(b);
        }
      }
    }
    ClaimSet claims(o);
    for (NodeId u = 0; u < n; ++u) {
      if (lies[u]) claims.set_claim(u, *lies[u]);
    }

    sim::Instrumentation instr;
    const auto crash = compute_crash_set(claims, byz, &instr);
    sim::Instrumentation ref;
    for (NodeId u = 0; u < n; ++u) {
      for (std::uint64_t e = 0; e < g.degree(u); ++e) {
        ref.count_setup_list(claims.claimed(u).size());
      }
    }
    for (NodeId v = 0; v < n; ++v) {
      if (byz[v]) {
        EXPECT_FALSE(crash[v]) << "trial=" << trial << " v=" << v;
        continue;
      }
      const bool conflict = detects_conflict(claims, v);
      ASSERT_EQ(crash[v], conflict) << "trial=" << trial << " v=" << v;
      ref.crashes += conflict ? 1 : 0;
      spared_total += conflict ? 0 : 1;
    }
    EXPECT_EQ(instr.crashes, ref.crashes) << "trial=" << trial;
    EXPECT_EQ(instr.setup_messages, ref.setup_messages) << "trial=" << trial;
    EXPECT_EQ(instr.setup_bytes, ref.setup_bytes) << "trial=" << trial;
    crashed_total += ref.crashes;
  }
  // Both outcomes occur, so the comparison is not vacuous either way.
  EXPECT_GT(crashed_total, 0u);
  EXPECT_GT(spared_total, 0u);
}

/// compute_crash_set on claims over an overlay whose G is unbuilt, checked
/// against the G-reading reference: its memory grows by the degree table's
/// n * 4 bytes only (`eager` is memory_bytes() before the lies were set),
/// and the crash set equals detects_conflict at every node, the setup
/// traffic one count_setup_list per G-edge. Returns the crash count.
std::uint64_t expect_g_free_crash_set_matches_reference(
    const ClaimSet& claims, const std::vector<bool>& byz,
    std::uint64_t eager) {
  const Overlay& o = claims.overlay();
  const NodeId n = o.num_nodes();
  sim::Instrumentation instr;
  const auto crash = compute_crash_set(claims, byz, &instr);
  EXPECT_EQ(o.memory_bytes(), eager + std::uint64_t{n} * 4);

  sim::Instrumentation ref;
  for (NodeId u = 0; u < n; ++u) {
    for (std::uint64_t e = 0; e < o.g().degree(u); ++e) {
      ref.count_setup_list(claims.claimed(u).size());
    }
  }
  for (NodeId v = 0; v < n; ++v) {
    if (byz[v]) {
      EXPECT_FALSE(crash[v]) << "v=" << v;
      continue;
    }
    const bool conflict = detects_conflict(claims, v);
    EXPECT_EQ(crash[v], conflict) << "v=" << v;
    ref.crashes += conflict ? 1 : 0;
  }
  EXPECT_EQ(instr, ref);
  return instr.crashes;
}

TEST(CrashSet, GFreeOnAFreshOverlayForEveryStrategy) {
  // Each built-in strategy lies on an overlay whose G is unbuilt; neither
  // its lies nor the crash rule build G.
  std::uint64_t crashes = 0;
  for (const auto kind : adv::all_strategies()) {
    const Overlay o = sample(512, 6, 91);
    util::Xoshiro256 rng(92);
    const auto byz = graph::random_byzantine_mask(o.num_nodes(), 12, rng);
    const std::uint64_t eager = o.memory_bytes();
    ClaimSet claims(o);
    const auto world = sim::World::make(o, byz, 93);
    adv::make_strategy(kind)->setup_lies(world, claims);
    EXPECT_EQ(o.memory_bytes(), eager) << adv::to_string(kind);
    crashes += expect_g_free_crash_set_matches_reference(claims, byz, eager);
  }
  EXPECT_GT(crashes, 0u);
}

TEST(CrashSet, GFreeOnAFreshOverlayWithConsistentLiars) {
  // Two liar pairs lie consistently about their mutual edge (u, w deny a
  // G-edge; x, y claim a non-edge, y two hops past x's ball), so their
  // common neighbors see agreeing claims; a fifth liar z denies one honest
  // neighbor, which keeps the comparison from being vacuous. Rows come from
  // g_row, so G stays unbuilt until the reference reads it.
  const Overlay o = sample(512, 6, 95);
  const NodeId n = o.num_nodes();
  const std::uint64_t eager = o.memory_bytes();
  graph::RowScratch scratch;
  const auto row_of = [&](NodeId v) {
    std::vector<NodeId> row;
    for (const auto& e : o.g_row(v, scratch)) row.push_back(e.node);
    return row;
  };
  std::vector<bool> byz(n, false);
  ClaimSet claims(o);
  const auto lie = [&](NodeId a, NodeId b, bool claim) {
    byz[a] = true;
    auto list = row_of(a);
    if (claim) {
      list.push_back(b);
    } else {
      std::erase(list, b);
    }
    claims.set_claim(a, std::move(list));
  };
  const NodeId u = 3;
  const NodeId w = row_of(u).front();
  lie(u, w, false);
  lie(w, u, false);
  const NodeId x = 200;
  const auto x_row = row_of(x);
  NodeId y = graph::kInvalidNode;
  for (const NodeId m : x_row) {
    for (const NodeId c : row_of(m)) {
      if (c != x && !byz[c] && !std::ranges::binary_search(x_row, c)) y = c;
    }
    if (y != graph::kInvalidNode) break;
  }
  ASSERT_NE(y, graph::kInvalidNode);
  lie(x, y, true);
  lie(y, x, true);
  const NodeId z = 400;
  ASSERT_FALSE(byz[z]);
  lie(z, row_of(z).back(), false);
  ASSERT_FALSE(byz[row_of(z).back()]);
  EXPECT_GT(expect_g_free_crash_set_matches_reference(claims, byz, eager), 0u);
  // The consistent pairs crash nobody: z's denial alone crashes its victim
  // and the common neighbors of z and the victim.
  for (NodeId v = 0; v < n; ++v) {
    if (byz[v]) continue;
    const bool sees_z = o.g().has_edge(v, z);
    const NodeId victim = o.g().neighbors(z).back();
    const bool crashed_by_z =
        v == victim || (sees_z && o.g().has_edge(v, victim));
    EXPECT_EQ(detects_conflict(claims, v), crashed_by_z) << "v=" << v;
  }
}

TEST(CrashSet, EmptyLieCrashesAllHonestNeighbors) {
  const Overlay o = sample(128, 6, 71);
  std::vector<bool> byz(o.num_nodes(), false);
  byz[10] = true;
  ClaimSet claims(o);
  claims.set_claim(10, {});
  const auto crash = compute_crash_set(claims, byz, nullptr);
  for (const NodeId w : o.g().neighbors(10)) {
    if (!byz[w]) {
      EXPECT_TRUE(crash[w]);
    }
  }
  // Nodes outside N_G(10) never see node 10's claims: no crash.
  for (NodeId v = 0; v < o.num_nodes(); ++v) {
    if (!byz[v] && !o.g().has_edge(10, v)) {
      EXPECT_FALSE(crash[v]);
    }
  }
}

TEST(CrashSet, CountsSetupTraffic) {
  const Overlay o = sample(64, 6, 73);
  const std::vector<bool> byz(o.num_nodes(), false);
  const ClaimSet claims(o);
  sim::Instrumentation instr;
  (void)compute_crash_set(claims, byz, &instr);
  // Every node ships one list per G-edge endpoint.
  EXPECT_EQ(instr.setup_messages, o.g().num_slots());
  EXPECT_GT(instr.setup_bytes, instr.setup_messages * 8);
  EXPECT_EQ(instr.crashes, 0u);
}

TEST(Reconstruction, Lemma3ExactOnTreeLikeNeighborhoods) {
  // Lemma 3's subset criterion recovers the exact H-neighbor set wherever
  // the node is locally tree-like at radius k+1 (shortcuts through depth-
  // (k+1) nodes are what create spurious maximal elements; see DESIGN.md
  // §3.5). At d=4 (k=2) and n=8192 the radius-3 tree-like set is ~93% of
  // nodes, all of which must reconstruct exactly.
  const Overlay o = sample(8192, 4, 79);
  const ClaimSet claims(o);
  const auto ltl =
      graph::classify_tree_like(o.h(), o.params().d, o.k() + 1);
  EXPECT_GT(ltl.count, o.num_nodes() * 8 / 10);
  std::uint32_t checked = 0;
  for (NodeId v = 0; v < o.num_nodes() && checked < 300; ++v) {
    if (!ltl.is_tree_like[v]) continue;
    ++checked;
    const auto rec = reconstruct_neighborhood(claims, v);
    EXPECT_FALSE(rec.conflict);
    const auto truth = o.h_neighbors(v);
    ASSERT_EQ(rec.h_neighbors.size(), truth.size()) << "v=" << v;
    for (std::size_t i = 0; i < truth.size(); ++i) {
      EXPECT_EQ(rec.h_neighbors[i], truth[i]);
    }
  }
  EXPECT_GE(checked, 100u);
}

TEST(Reconstruction, MostlyExactEvenBeyondTreeLikeNodes) {
  // Off the tree-like set the reconstruction may add spurious H-neighbors
  // (it stays a superset); overall exactness should still dominate.
  const Overlay o = sample(8192, 4, 81);
  const ClaimSet claims(o);
  std::uint32_t exact = 0;
  const std::uint32_t total = 400;
  for (NodeId v = 0; v < total; ++v) {
    const auto rec = reconstruct_neighborhood(claims, v);
    const auto truth = o.h_neighbors(v);
    if (rec.h_neighbors.size() == truth.size() &&
        std::equal(truth.begin(), truth.end(), rec.h_neighbors.begin())) {
      ++exact;
    } else {
      // Failure mode is always over-inclusion, never a missing neighbor.
      EXPECT_TRUE(std::includes(rec.h_neighbors.begin(),
                                rec.h_neighbors.end(), truth.begin(),
                                truth.end()))
          << "v=" << v;
    }
  }
  EXPECT_GT(exact, total * 8 / 10);
}

TEST(Reconstruction, ConflictShortCircuits) {
  const Overlay o = sample(64, 6, 83);
  ClaimSet claims(o);
  claims.set_claim(0, {});
  const NodeId victim = o.g().neighbors(0)[0];
  const auto rec = reconstruct_neighborhood(claims, victim);
  EXPECT_TRUE(rec.conflict);
  EXPECT_TRUE(rec.h_neighbors.empty());
}

}  // namespace
}  // namespace byz::proto
