#include "incremental/engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "graph/small_world.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"

namespace byz::incremental {

namespace {

/// Rows per chunk of the snapshot's H-row fill and G translation: each
/// row is a few cache lines of copying, so a chunk amortizes the cursor.
constexpr std::uint64_t kRowGrain = 1024;

/// One dirty-ball BFS worker's scratch, on that worker's own stack.
struct BallWork {
  graph::BfsScratch scratch;
  std::vector<graph::BallEntry> tmp;
};

bool graphs_equal(const graph::Graph& a, const graph::Graph& b) {
  const NodeId n = a.num_nodes();
  if (n != b.num_nodes() || a.num_slots() != b.num_slots()) return false;
  for (NodeId v = 0; v < n; ++v) {
    const auto na = a.neighbors(v);
    const auto nb = b.neighbors(v);
    if (!std::equal(na.begin(), na.end(), nb.begin(), nb.end())) return false;
  }
  return true;
}

}  // namespace

bool overlays_identical(const graph::Overlay& a, const graph::Overlay& b) {
  const auto& pa = a.params();
  const auto& pb = b.params();
  if (pa.n != pb.n || pa.d != pb.d || pa.k != pb.k || pa.seed != pb.seed ||
      pa.generation != pb.generation || a.k() != b.k()) {
    return false;
  }
  if (!graphs_equal(a.h(), b.h()) ||
      !graphs_equal(a.h_simple(), b.h_simple()) ||
      !graphs_equal(a.g(), b.g())) {
    return false;
  }
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    const auto da = a.g_dists(v);
    const auto db = b.g_dists(v);
    if (!std::equal(da.begin(), da.end(), db.begin(), db.end())) return false;
  }
  const auto ca = a.ball_counts();
  const auto cb = b.ball_counts();
  return std::equal(ca.begin(), ca.end(), cb.begin(), cb.end());
}

IncrementalEngine::IncrementalEngine(MutableOverlay& overlay, Config config)
    : overlay_(&overlay), config_(config), tracker_(overlay) {}

void IncrementalEngine::recompute_ball(NodeId v, graph::BfsScratch& scratch,
                                       std::vector<graph::BallEntry>& tmp) {
  const auto& ov = *overlay_;
  scratch.ensure(ov.id_bound());
  scratch.new_epoch();
  scratch.mark(v);
  tmp.clear();
  tmp.push_back({v, 0});
  const std::uint32_t cycles = ov.num_cycles();
  const std::uint32_t k = ov.k();
  const std::uint32_t w = graph::witness_width(k);
  std::uint32_t* const counts =
      counts_.data() + static_cast<std::size_t>(v) * w;
  std::size_t level_begin = 0;
  for (std::uint32_t depth = 1; depth <= k; ++depth) {
    // A ball that stopped growing carries its final size outwards.
    const std::size_t level_end = tmp.size();
    for (std::size_t i = level_begin; i < level_end; ++i) {
      const NodeId u = tmp[i].node;
      for (std::uint32_t c = 0; c < cycles; ++c) {
        for (const NodeId w : {ov.successor(c, u), ov.predecessor(c, u)}) {
          if (!scratch.visited(w)) {
            scratch.mark(w);
            tmp.push_back({w, static_cast<std::uint8_t>(depth)});
          }
        }
      }
    }
    level_begin = level_end;
    if (depth <= w) counts[depth - 1] = static_cast<std::uint32_t>(tmp.size());
  }
  auto& ball = balls_[v];
  ball.assign(tmp.begin() + 1, tmp.end());  // self excluded, like G rows
  graph::sort_ball_by_node(ball, ov.id_bound(), tmp);
}

MutableOverlay::Snapshot IncrementalEngine::snapshot() {
  static const obs::Counter obs_recomputed("incremental.balls_recomputed");
  static const obs::Counter obs_reused("incremental.balls_reused");
  obs::Span snap_span("incremental.snapshot");
  const auto& ov = *overlay_;
  MutableOverlay::Snapshot snap;
  snap.dense_to_stable = ov.alive_nodes();
  const auto n = static_cast<NodeId>(snap.dense_to_stable.size());
  const NodeId bound = ov.id_bound();

  std::vector<NodeId> dense(bound, graph::kInvalidNode);
  for (NodeId i = 0; i < n; ++i) dense[snap.dense_to_stable[i]] = i;
  const std::uint32_t k = ov.k();
  const std::uint32_t w = graph::witness_width(k);
  if (balls_.size() < bound) {
    balls_.resize(bound);
    counts_.resize(static_cast<std::size_t>(bound) * w);
  }

  std::vector<NodeId> recompute;
  if (!has_snapshot_) {
    recompute = snap.dense_to_stable;
    ++stats_.full_rebuilds;
  } else {
    for (const NodeId v : snap.dense_to_stable) {
      if (tracker_.is_dirty(v)) recompute.push_back(v);
    }
  }

  {
    obs::Span bfs_span("incremental.dirty_bfs");
    bfs_span.arg("recompute", recompute.size()).arg("alive", n);
    util::parallel_for(
        recompute.size(), 64, 0, [](unsigned) { return BallWork{}; },
        [&](BallWork& work, std::uint64_t i) {
          recompute_ball(recompute[i], work.scratch, work.tmp);
        });
  }
  // Departed nodes keep no ball (their stable ids are never reused).
  for (NodeId v = 0; v < bound; ++v) {
    if (!ov.is_alive(v) && !balls_[v].empty()) {
      std::vector<graph::BallEntry>().swap(balls_[v]);
    }
  }
  stats_.last_recomputed = recompute.size();
  stats_.last_reused = n - recompute.size();
  stats_.balls_recomputed += stats_.last_recomputed;
  stats_.balls_reused += stats_.last_reused;
  obs_recomputed.add(stats_.last_recomputed);
  obs_reused.add(stats_.last_reused);
  snap_span.arg("recomputed", stats_.last_recomputed)
      .arg("reused", stats_.last_reused);
  {
    obs::Span csr_span("incremental.csr_assembly");

    // H: every node holds exactly one successor and one predecessor slot
    // per cycle, so the CSR offsets are uniform; sorting each d-slot row
    // matches the multiset sort Graph::from_edges performs in the full
    // rebuild.
    const std::uint32_t d = ov.d();
    const std::uint32_t cycles = ov.num_cycles();
    graph::Graph::OffsetVec h_off(static_cast<std::size_t>(n) + 1);
    for (NodeId i = 0; i <= n; ++i) {
      h_off[i] = static_cast<std::uint64_t>(i) * d;
    }
    graph::Graph::NeighborVec h_nbrs(static_cast<std::uint64_t>(n) * d);
    util::parallel_for(
        n, kRowGrain, 0, [](unsigned) { return 0; },
        [&](int, std::uint64_t i) {
          const NodeId v = snap.dense_to_stable[i];
          NodeId* row = h_nbrs.data() + i * d;
          for (std::uint32_t c = 0; c < cycles; ++c) {
            row[2 * c] = dense[ov.successor(c, v)];
            row[2 * c + 1] = dense[ov.predecessor(c, v)];
          }
          std::sort(row, row + d);
        });

    // G: prefix-sum the stored ball sizes, then translate stable→dense.
    // The mapping is monotone (dense order IS increasing stable order), so
    // the stable-sorted balls land dense-sorted without re-sorting.
    graph::Graph::OffsetVec g_off(static_cast<std::size_t>(n) + 1, 0);
    for (NodeId i = 0; i < n; ++i) {
      g_off[i + 1] = g_off[i] + balls_[snap.dense_to_stable[i]].size();
    }
    graph::Graph::NeighborVec g_nbrs(g_off[n]);
    std::vector<std::uint8_t> g_dist(g_off[n]);
    std::vector<std::uint32_t> counts(static_cast<std::size_t>(n) * w);
    util::parallel_for(
        n, kRowGrain, 0, [](unsigned) { return 0; },
        [&](int, std::uint64_t i) {
          const NodeId v = snap.dense_to_stable[i];
          const auto& ball = balls_[v];
          const std::uint64_t base = g_off[i];
          for (std::size_t j = 0; j < ball.size(); ++j) {
            g_nbrs[base + j] = dense[ball[j].node];
            g_dist[base + j] = ball[j].dist;
          }
          std::copy_n(counts_.data() + static_cast<std::size_t>(v) * w, w,
                      counts.data() + i * w);
        });

    graph::OverlayParams params;
    params.n = n;
    params.d = d;
    params.k = k;
    params.seed = ov.bootstrap_seed();
    params.generation = ov.build_tag();
    snap.overlay = graph::Overlay::build_with_balls(
        params, graph::Graph::from_csr(std::move(h_off), std::move(h_nbrs)),
        graph::Graph::from_csr(std::move(g_off), std::move(g_nbrs)),
        std::move(g_dist), std::move(counts));
  }

  if (config_.verify_against_full) {
    const auto reference = ov.snapshot();
    if (reference.dense_to_stable != snap.dense_to_stable ||
        !overlays_identical(reference.overlay, snap.overlay)) {
      throw std::logic_error(
          "IncrementalEngine::snapshot: incremental result diverged from the "
          "full rebuild (dirty-ball invariant violated)");
    }
    ++stats_.verified;
  }

  tracker_.clear();
  has_snapshot_ = true;
  ++stats_.snapshots;
  return snap;
}

}  // namespace byz::incremental
