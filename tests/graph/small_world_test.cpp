#include "graph/small_world.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <latch>
#include <span>
#include <thread>
#include <vector>

#include "graph/bfs.hpp"
#include "obs/trace.hpp"

namespace byz::graph {
namespace {

Overlay build(NodeId n, std::uint32_t d, std::uint32_t k,
              std::uint64_t seed) {
  OverlayParams p;
  p.n = n;
  p.d = d;
  p.k = k;
  p.seed = seed;
  return Overlay::build(p);
}

Overlay sample(NodeId n = 256, std::uint32_t d = 8, std::uint64_t seed = 11) {
  return build(n, d, 0, seed);
}

TEST(SmallWorld, PaperK) {
  EXPECT_EQ(paper_k(6), 2u);
  EXPECT_EQ(paper_k(8), 3u);   // ceil(8/3)
  EXPECT_EQ(paper_k(9), 3u);
  EXPECT_EQ(paper_k(10), 4u);
  EXPECT_EQ(paper_k(12), 4u);
}

TEST(SmallWorld, ResolvesDefaultK) {
  const Overlay o = sample(128, 8);
  EXPECT_EQ(o.k(), 3u);
}

TEST(SmallWorld, ExplicitKRespected) {
  OverlayParams p;
  p.n = 128;
  p.d = 8;
  p.k = 2;
  p.seed = 3;
  const Overlay o = Overlay::build(p);
  EXPECT_EQ(o.k(), 2u);
}

/// The first and last `count` node ids: the extremes of every radix byte
/// the G build sorts on.
std::vector<NodeId> prefix_and_suffix(const Overlay& o, NodeId count) {
  std::vector<NodeId> ids;
  const NodeId n = o.num_nodes();
  for (NodeId v = 0; v < n; ++v) {
    if (v < count || v >= n - std::min(count, n)) ids.push_back(v);
  }
  return ids;
}

/// (u,v) ∈ E(G) iff dist_H(u,v) <= k, each G row strictly ascending —
/// checked against ground-truth BFS.
void expect_g_matches_ball_definition(const Overlay& o, NodeId count) {
  const std::uint32_t k = o.k();
  for (const NodeId v : prefix_and_suffix(o, count)) {
    const auto nbrs = o.g().neighbors(v);
    EXPECT_EQ(std::adjacent_find(nbrs.begin(), nbrs.end(),
                                 std::greater_equal<NodeId>()),
              nbrs.end())
        << "row of v=" << v << " not strictly ascending";
    const auto dist = bfs_distances(o.h_simple(), v);
    std::uint64_t mismatches = 0;
    for (NodeId w = 0; w < o.num_nodes(); ++w) {
      if (w == v) continue;
      const bool in_g = o.g().has_edge(v, w);
      const bool within = dist[w] <= k;
      if (in_g != within) ++mismatches;
    }
    EXPECT_EQ(mismatches, 0u) << "v=" << v;
  }
}

/// g_row(v) holds the exact H-distance of each G neighbor, slot for slot.
void expect_distance_annotations_exact(const Overlay& o, NodeId count) {
  RowScratch scratch;
  for (const NodeId v : prefix_and_suffix(o, count)) {
    const auto dist = bfs_distances(o.h_simple(), v);
    for (const BallEntry& e : o.g_row(v, scratch)) {
      EXPECT_EQ(e.dist, dist[e.node]) << "v=" << v << " w=" << e.node;
    }
  }
}

/// The G-free readers against G: g_degrees() (every node) and g_row(v)
/// (prefix and suffix ids) must equal G's row lengths and rows, read
/// before G is built (on `fresh`: the count pass and the BFS rows, which
/// must leave G unbuilt) and after (on `fresh` once its G is read, and on
/// `built`, whose G is read before its table, which then comes off G's
/// rows). `fresh` and `built` are two builds of one overlay.
void expect_degrees_and_rows_match_g(const Overlay& fresh,
                                     const Overlay& built, NodeId count) {
  const NodeId n = fresh.num_nodes();
  const std::uint64_t eager = fresh.memory_bytes();
  const auto table = fresh.g_degrees();
  ASSERT_EQ(table.size(), n);
  const auto ids = prefix_and_suffix(fresh, count);
  RowScratch scratch;
  std::vector<std::vector<BallEntry>> rows;
  for (const NodeId v : ids) {
    const auto row = fresh.g_row(v, scratch);
    rows.emplace_back(row.begin(), row.end());
  }
  // The table's n * 4 bytes and nothing else: G is still unbuilt.
  EXPECT_EQ(fresh.memory_bytes(), eager + std::uint64_t{n} * 4);

  const auto expect_row_is_g = [&](const Overlay& o, NodeId v,
                                   std::span<const BallEntry> row) {
    const auto nbrs = o.g().neighbors(v);
    ASSERT_EQ(row.size(), nbrs.size()) << "v=" << v;
    for (std::size_t i = 0; i < row.size(); ++i) {
      EXPECT_EQ(row[i].node, nbrs[i]) << "v=" << v << " slot " << i;
    }
  };
  (void)built.g();
  const auto from_rows = built.g_degrees();
  for (NodeId v = 0; v < n; ++v) {
    EXPECT_EQ(table[v], fresh.g().degree(v)) << "v=" << v;
    EXPECT_EQ(from_rows[v], built.g().degree(v)) << "v=" << v;
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    expect_row_is_g(fresh, ids[i], rows[i]);
    expect_row_is_g(fresh, ids[i], fresh.g_row(ids[i], scratch));
    expect_row_is_g(built, ids[i], built.g_row(ids[i], scratch));
  }
}

TEST(SmallWorld, GMatchesBallDefinition) {
  // n=128 and n=300 sort on one and two id bytes; n=65539 (d=4, k=2) on
  // three. n=10 (d=4, k=6) puts the whole graph in every ball, at the
  // n - 1 stride cap; d=10, k=4 (stride bound 8200) is capped at n - 1 too.
  expect_g_matches_ball_definition(sample(128, 6, 5), 32);
  expect_g_matches_ball_definition(sample(300, 6, 5), 32);
  expect_g_matches_ball_definition(sample(65539, 4, 5), 16);
  expect_g_matches_ball_definition(build(10, 4, 6, 5), 10);
  expect_g_matches_ball_definition(build(1500, 10, 4, 5), 16);
}

TEST(SmallWorld, DegreesAndRowsMatchGBeforeAndAfterItIsBuilt) {
  expect_degrees_and_rows_match_g(sample(128, 6, 5), sample(128, 6, 5), 32);
  expect_degrees_and_rows_match_g(sample(300, 6, 5), sample(300, 6, 5), 32);
  expect_degrees_and_rows_match_g(sample(65539, 4, 5), sample(65539, 4, 5),
                                  16);
  expect_degrees_and_rows_match_g(build(10, 4, 6, 5), build(10, 4, 6, 5), 10);
  expect_degrees_and_rows_match_g(build(1500, 10, 4, 5),
                                  build(1500, 10, 4, 5), 16);
}

TEST(SmallWorld, DistanceAnnotationsExact) {
  expect_distance_annotations_exact(sample(128, 6, 7), 16);
  expect_distance_annotations_exact(sample(300, 8, 7), 16);
  expect_distance_annotations_exact(sample(65539, 4, 7), 16);
  expect_distance_annotations_exact(build(10, 4, 6, 7), 10);
  expect_distance_annotations_exact(build(1500, 10, 4, 7), 16);
}

/// ball_row(v)[r-1] == |B_H(v, r)| for every v and r = 1..w, w =
/// witness_width(k), against two oracles: g_row's distances (1 + the
/// entries within r) and a BFS on the simple H truncated at w.
/// Returns how many rows had saturated (the whole graph inside radius w).
NodeId expect_ball_counts_exact(const Overlay& o) {
  const std::uint32_t w = witness_width(o.k());
  const NodeId n = o.num_nodes();
  EXPECT_EQ(o.ball_counts().size(), static_cast<std::size_t>(n) * w);
  NodeId saturated = 0;
  RowScratch scratch;
  for (NodeId v = 0; v < n; ++v) {
    const auto row = o.ball_row(v);
    EXPECT_EQ(row.size(), w);
    const auto k_ball = o.g_row(v, scratch);
    const auto bfs = bfs_distances(o.h_simple(), v, w);
    for (std::uint32_t r = 1; r <= w; ++r) {
      const auto from_g = 1 + std::count_if(k_ball.begin(), k_ball.end(),
                                            [r](const BallEntry& e) {
                                              return e.dist <= r;
                                            });
      const auto from_bfs = std::count_if(
          bfs.begin(), bfs.end(), [r](std::uint32_t d) { return d <= r; });
      EXPECT_EQ(row[r - 1], static_cast<std::uint32_t>(from_g))
          << "v=" << v << " r=" << r;
      EXPECT_EQ(row[r - 1], static_cast<std::uint32_t>(from_bfs))
          << "v=" << v << " r=" << r;
    }
    if (row[w - 1] == n) ++saturated;
  }
  return saturated;
}

TEST(SmallWorld, BallCountsMatchBothOracles) {
  EXPECT_EQ(expect_ball_counts_exact(build(128, 6, 0, 41)), 0u);  // paper k
  EXPECT_EQ(expect_ball_counts_exact(build(300, 8, 0, 43)), 0u);
  EXPECT_EQ(expect_ball_counts_exact(build(96, 4, 1, 45)), 0u);   // k = 1
  (void)expect_ball_counts_exact(build(200, 6, 4, 47));  // k above paper k
  EXPECT_EQ(expect_ball_counts_exact(build(1500, 10, 4, 51)), 0u);
  // A tiny overlay saturates before radius w: the rows carry n outwards.
  const Overlay tiny = build(10, 4, 6, 49);
  EXPECT_EQ(expect_ball_counts_exact(tiny), tiny.num_nodes());
}

/// G's rows, compared slot for slot.
void expect_same_g(const Overlay& a, const Overlay& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.g().num_slots(), b.g().num_slots());
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    const auto na = a.g().neighbors(v);
    const auto nb = b.g().neighbors(v);
    ASSERT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end()))
        << "v=" << v;
  }
}

TEST(SmallWorld, FirstReadBuildsGAndCountsItsBytes) {
  const Overlay o = sample(512, 8, 55);
  const std::uint64_t eager = o.memory_bytes();
  const std::uint64_t h_bytes = o.h().memory_bytes() +
                                o.h_simple().memory_bytes() +
                                o.ball_counts().size() * sizeof(std::uint32_t);
  EXPECT_EQ(eager, h_bytes);  // no G yet
  const Graph& g = o.g();
  const std::uint64_t built = o.memory_bytes();
  // G's offsets and its whole stride buffer of node ids, 456 per node at
  // d = 8, k = 3: at least the slots the rows fill.
  const std::uint64_t n = o.num_nodes();
  EXPECT_EQ(built - eager,
            (n + 1) * sizeof(std::uint64_t) + n * 456 * sizeof(NodeId));
  EXPECT_GE(built - eager, g.memory_bytes());
  EXPECT_EQ(&o.g(), &g);
  EXPECT_EQ(o.memory_bytes(), built);
  // The degree table, read after G, adds its n * 4 bytes.
  (void)o.g_degrees();
  EXPECT_EQ(o.memory_bytes(), built + std::uint64_t{o.num_nodes()} * 4);
}

TEST(SmallWorld, ConcurrentFirstReadsBuildGOnce) {
  // Eight threads make the first G read of one fresh overlay: one build,
  // one object, the rows of a serial build.
  const Overlay reference = sample(2048, 8, 57);
  (void)reference.g();
  const Overlay fresh = sample(2048, 8, 57);
  obs::reset_trace();
  obs::set_enabled(true);
  constexpr int kThreads = 8;
  std::vector<const Graph*> seen(kThreads, nullptr);
  {
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        start.arrive_and_wait();
        seen[t] = &fresh.g();
      });
    }
    for (auto& th : threads) th.join();
  }
  obs::set_enabled(false);
  int g_passes = 0;
  for (const auto& e : obs::trace_snapshot().events) {
    if (e.name == "graph.g_pass") ++g_passes;
  }
  EXPECT_EQ(g_passes, 1);
  obs::reset_trace();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
  expect_same_g(fresh, reference);
  EXPECT_EQ(fresh.memory_bytes(), reference.memory_bytes());
}

TEST(SmallWorld, ConcurrentFirstReadsBuildTheDegreeTableOnce) {
  // Eight threads make the first g_degrees() read of one fresh overlay: one
  // count pass, one table, a serial build's degrees, and still no G.
  const Overlay reference = sample(2048, 8, 59);
  const Overlay fresh = sample(2048, 8, 59);
  const std::uint64_t eager = fresh.memory_bytes();
  obs::reset_trace();
  obs::set_enabled(true);
  constexpr int kThreads = 8;
  std::vector<const std::uint32_t*> seen(kThreads, nullptr);
  {
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        start.arrive_and_wait();
        seen[t] = fresh.g_degrees().data();
      });
    }
    for (auto& th : threads) th.join();
  }
  obs::set_enabled(false);
  int count_passes = 0;
  for (const auto& e : obs::trace_snapshot().events) {
    if (e.name == "graph.g_degrees") ++count_passes;
  }
  EXPECT_EQ(count_passes, 1);
  obs::reset_trace();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
  EXPECT_EQ(fresh.memory_bytes(),
            eager + std::uint64_t{fresh.num_nodes()} * 4);
  const auto table = fresh.g_degrees();
  for (NodeId v = 0; v < fresh.num_nodes(); ++v) {
    EXPECT_EQ(table[v], reference.g().degree(v)) << "v=" << v;
  }
}

TEST(SmallWorld, RowDistancesSymmetric) {
  // w sits in v's row at distance r iff v sits in w's row at distance r.
  const Overlay o = sample(64, 6, 13);
  RowScratch scratch;
  RowScratch back_scratch;
  for (NodeId v = 0; v < o.num_nodes(); ++v) {
    for (const BallEntry& e : o.g_row(v, scratch)) {
      const auto back = o.g_row(e.node, back_scratch);
      const auto it = std::lower_bound(
          back.begin(), back.end(), v,
          [](const BallEntry& b, NodeId id) { return b.node < id; });
      ASSERT_TRUE(it != back.end() && it->node == v) << "v=" << v;
      EXPECT_EQ(it->dist, e.dist) << "v=" << v << " w=" << e.node;
    }
  }
}

TEST(SmallWorld, FarNodesStayOutOfTheRow) {
  const Overlay o = sample(512, 4, 17);  // k=2, sparse: far pairs exist
  bool found_far = false;
  const auto dist = bfs_distances(o.h_simple(), 0);
  for (NodeId w = 0; w < o.num_nodes(); ++w) {
    if (dist[w] > o.k()) {
      EXPECT_FALSE(o.g().has_edge(0, w));
      found_far = true;
      break;
    }
  }
  EXPECT_TRUE(found_far);
}

TEST(SmallWorld, HNeighborsMatchSimpleH) {
  const Overlay o = sample(128, 8, 19);
  for (NodeId v = 0; v < o.num_nodes(); ++v) {
    const auto a = o.h_neighbors(v);
    const auto b = o.h_simple().neighbors(v);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
}

TEST(SmallWorld, GDegreeBoundObservation2) {
  // |B_G(v,1)| < (d-1)^(k+1) + 1 (Observation 2 with τ=1).
  const Overlay o = sample(1024, 8, 23);
  const double bound = std::pow(7.0, 4.0);
  for (NodeId v = 0; v < o.num_nodes(); ++v) {
    EXPECT_LT(o.g().degree(v), bound);
  }
}

TEST(SmallWorld, DeterministicGivenSeed) {
  const Overlay a = sample(64, 6, 31);
  const Overlay b = sample(64, 6, 31);
  EXPECT_EQ(a.g().num_edges(), b.g().num_edges());
  for (NodeId v = 0; v < 64; ++v) {
    const auto na = a.g().neighbors(v);
    const auto nb = b.g().neighbors(v);
    ASSERT_EQ(na.size(), nb.size());
  }
}

TEST(SmallWorld, RejectsZeroK) {
  OverlayParams p;
  p.n = 16;
  p.d = 4;
  p.k = 0;  // resolves to paper k = 2, fine
  EXPECT_NO_THROW((void)Overlay::build(p));
}

}  // namespace
}  // namespace byz::graph
