#include "graph/small_world.hpp"

#include <algorithm>
#include <stdexcept>

#include "graph/bfs.hpp"
#include "graph/hamiltonian.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace byz::graph {

namespace {

/// Nodes per chunk of the G pass's two per-node loops.
constexpr std::uint64_t kBallGrain = 256;

/// One G-pass worker's scratch, on that worker's own stack.
struct BallWork {
  BfsScratch scratch;
  std::vector<BallEntry> ball;
  std::vector<BallEntry> tmp;
};

}  // namespace

Overlay Overlay::build(const OverlayParams& params) {
  util::Xoshiro256 rng(params.seed);
  return build_from_h(params, build_hamiltonian_graph(params.n, params.d, rng));
}

Overlay Overlay::build_from_h(const OverlayParams& params, Graph h) {
  obs::Span g_pass_span("graph.g_pass");
  Overlay o;
  o.params_ = params;
  o.k_ = params.k == 0 ? paper_k(params.d) : params.k;
  if (o.k_ == 0) throw std::invalid_argument("Overlay: k must be >= 1");
  if (h.num_nodes() != params.n) {
    throw std::invalid_argument("Overlay: H node count != params.n");
  }
  if (!h.is_regular(params.d)) {
    throw std::invalid_argument("Overlay: H is not d-regular");
  }

  o.h_ = std::move(h);
  o.h_simple_ = simplify(o.h_);

  const NodeId n = params.n;
  const std::uint32_t k = o.k_;
  const std::uint32_t w = witness_width(k);

  // Pass 1: ball sizes (excluding the center) -> CSR offsets, and the
  // cumulative counts |B_H(v, r)|, r <= w, off the BFS level ends.
  Graph::OffsetVec offsets(static_cast<std::size_t>(n) + 1, 0);
  std::vector<std::uint32_t> counts(static_cast<std::size_t>(n) * w);
  util::parallel_for(
      n, kBallGrain, 0, [](unsigned) { return BallWork{}; },
      [&](BallWork& work, std::uint64_t v) {
        bfs_ball(o.h_simple_, static_cast<NodeId>(v), k, work.scratch,
                 work.ball, std::span<std::uint32_t>(counts).subspan(v * w, w));
        offsets[v + 1] = work.ball.size() - 1;  // no self
      });
  for (std::size_t i = 1; i < offsets.size(); ++i) {
    offsets[i] += offsets[i - 1];
  }

  // Pass 2: fill the final node/dist arrays, each ball sorted by neighbor
  // id so the Graph invariants (sorted adjacency) hold and h_dist can
  // binary-search.
  Graph::NeighborVec nodes(offsets.back());
  std::vector<std::uint8_t> dists(offsets.back());
  util::parallel_for(
      n, kBallGrain, 0, [](unsigned) { return BallWork{}; },
      [&](BallWork& work, std::uint64_t v) {
        bfs_ball(o.h_simple_, static_cast<NodeId>(v), k, work.scratch,
                 work.ball);
        const auto others = std::span<BallEntry>(work.ball).subspan(1);
        sort_ball_by_node(others, n, work.tmp);
        std::uint64_t slot = offsets[v];
        for (const BallEntry& e : others) {
          nodes[slot] = e.node;
          dists[slot] = e.dist;
          ++slot;
        }
      });

  o.g_ = Graph::from_csr(std::move(offsets), std::move(nodes));
  o.g_dist_ = std::move(dists);
  o.ball_counts_ = std::move(counts);
  return o;
}

Overlay Overlay::build_with_balls(const OverlayParams& params, Graph h,
                                  Graph g, std::vector<std::uint8_t> g_dist,
                                  std::vector<std::uint32_t> ball_counts) {
  Overlay o;
  o.params_ = params;
  o.k_ = params.k == 0 ? paper_k(params.d) : params.k;
  if (o.k_ == 0) throw std::invalid_argument("Overlay: k must be >= 1");
  if (h.num_nodes() != params.n || g.num_nodes() != params.n) {
    throw std::invalid_argument("Overlay: H/G node count != params.n");
  }
  if (!h.is_regular(params.d)) {
    throw std::invalid_argument("Overlay: H is not d-regular");
  }
  if (g_dist.size() != g.num_slots()) {
    throw std::invalid_argument("Overlay: g_dist size != G slots");
  }
  if (ball_counts.size() !=
      static_cast<std::size_t>(params.n) * witness_width(o.k_)) {
    throw std::invalid_argument("Overlay: ball_counts size != n*w");
  }
  o.h_ = std::move(h);
  o.h_simple_ = simplify(o.h_);
  o.g_ = std::move(g);
  o.g_dist_ = std::move(g_dist);
  o.ball_counts_ = std::move(ball_counts);
  return o;
}

std::uint8_t Overlay::h_dist(NodeId v, NodeId w) const {
  if (v == w) return 0;
  const auto nbrs = g_.neighbors(v);
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), w);
  if (it == nbrs.end() || *it != w) return kNotInBall;
  const auto slot = static_cast<std::uint64_t>(it - nbrs.begin());
  return g_dist_[g_.first_slot(v) + slot];
}

}  // namespace byz::graph
