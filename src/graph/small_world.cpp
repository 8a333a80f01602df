#include "graph/small_world.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "graph/bfs.hpp"
#include "graph/hamiltonian.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace byz::graph {

namespace {

/// Nodes per chunk of the per-node BFS loops.
constexpr std::uint64_t kBallGrain = 256;

/// One BFS worker's scratch, on that worker's own stack.
struct BallWork {
  BfsScratch scratch;
  std::vector<BallEntry> ball;
  std::vector<BallEntry> tmp;
};

/// The most nodes a k-ball of a simple graph of degree <= d holds besides
/// its center, sum_{i=1..k} d(d-1)^(i-1), capped at n - 1.
std::uint64_t ball_stride(NodeId n, std::uint32_t d, std::uint32_t k) {
  const std::uint64_t cap = n > 0 ? n - 1 : 0;
  std::uint64_t total = 0;
  std::uint64_t level = d;  // d(d-1)^(i-1); clamped at cap, so no overflow
  for (std::uint32_t i = 1; i <= k && total < cap; ++i) {
    total += level;
    level = std::min(level * (d - 1), cap);
  }
  return std::min(total, cap);
}

}  // namespace

Overlay Overlay::build(const OverlayParams& params) {
  Graph h = [&] {
    obs::Span h_span("graph.h_sample");
    util::Xoshiro256 rng(params.seed);
    return build_hamiltonian_graph(params.n, params.d, rng);
  }();
  return build_from_h(params, std::move(h));
}

Overlay Overlay::build_from_h(const OverlayParams& params, Graph h) {
  obs::Span counts_span("graph.ball_counts");
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

  // The cumulative counts |B_H(v, r)|, r <= w, off the BFS level ends.
  const NodeId n = params.n;
  const std::uint32_t w = witness_width(o.k_);
  o.ball_counts_.resize(static_cast<std::size_t>(n) * w);
  util::parallel_for(
      n, kBallGrain, 0, [](unsigned) { return BallWork{}; },
      [&](BallWork& work, std::uint64_t v) {
        bfs_ball(o.h_simple_, static_cast<NodeId>(v), w, work.scratch,
                 work.ball,
                 std::span<std::uint32_t>(o.ball_counts_).subspan(v * w, w));
      });
  return o;
}

const Overlay::Balls& Overlay::materialize() const {
  LazyBalls& lazy = *lazy_;
  const std::lock_guard<std::mutex> lock(lazy.mutex);
  if (const Balls* b = lazy.ready.load(std::memory_order_relaxed)) return *b;

  obs::Span g_pass_span("graph.g_pass");
  const NodeId n = num_nodes();
  const std::uint32_t k = k_;
  const std::uint64_t stride = ball_stride(n, params_.d, k);

  // Each ball, sorted by neighbor id so the Graph invariants (sorted
  // adjacency) hold and h_dist can binary-search, lands at v * stride;
  // offsets[v + 1] holds its size until the prefix sum below.
  Graph::OffsetVec offsets(static_cast<std::size_t>(n) + 1, 0);
  Graph::NeighborVec nodes(n * stride);
  std::vector<std::uint8_t> dists(n * stride);
  util::parallel_for(
      n, kBallGrain, 0, [](unsigned) { return BallWork{}; },
      [&](BallWork& work, std::uint64_t v) {
        bfs_ball(h_simple_, static_cast<NodeId>(v), k, work.scratch,
                 work.ball);
        const auto others = std::span<BallEntry>(work.ball).subspan(1);
        if (others.size() > stride) {
          throw std::logic_error("Overlay: k-ball exceeds the degree bound");
        }
        sort_ball_by_node(others, n, work.tmp);
        const std::uint64_t base = v * stride;
        for (std::size_t i = 0; i < others.size(); ++i) {
          nodes[base + i] = others[i].node;
          dists[base + i] = others[i].dist;
        }
        offsets[v + 1] = others.size();
      });

  // Compact in place: row v moves down to offsets[v] <= v * stride, past
  // every row already moved and never onto one not yet moved.
  for (NodeId v = 0; v < n; ++v) {
    const std::uint64_t size = offsets[v + 1];
    const std::uint64_t from = static_cast<std::uint64_t>(v) * stride;
    offsets[v + 1] = offsets[v] + size;
    if (size == 0) continue;  // (an empty buffer may have no storage)
    std::memmove(nodes.data() + offsets[v], nodes.data() + from,
                 size * sizeof(NodeId));
    std::memmove(dists.data() + offsets[v], dists.data() + from, size);
  }
  nodes.resize(offsets.back());
  dists.resize(offsets.back());

  lazy.balls.bytes = offsets.size() * sizeof(std::uint64_t) +
                     nodes.capacity() * sizeof(NodeId) + dists.capacity();
  lazy.balls.g = Graph::from_csr(std::move(offsets), std::move(nodes));
  lazy.balls.dist = std::move(dists);
  lazy.ready.store(&lazy.balls, std::memory_order_release);
  return lazy.balls;
}

std::uint8_t Overlay::h_dist(NodeId v, NodeId w) const {
  const Balls& b = balls();
  if (v == w) return 0;
  const auto nbrs = b.g.neighbors(v);
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), w);
  if (it == nbrs.end() || *it != w) return kNotInBall;
  const auto slot = static_cast<std::uint64_t>(it - nbrs.begin());
  return b.dist[b.g.first_slot(v) + slot];
}

std::uint64_t Overlay::memory_bytes() const noexcept {
  const Balls* b = lazy_->ready.load(std::memory_order_acquire);
  return h_.memory_bytes() + h_simple_.memory_bytes() +
         ball_counts_.size() * sizeof(std::uint32_t) +
         (b != nullptr ? b->bytes : 0);
}

}  // namespace byz::graph
