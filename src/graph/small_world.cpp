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
      n, kBallGrain, 0, [](unsigned) { return RowScratch{}; },
      [&](RowScratch& work, std::uint64_t v) {
        bfs_ball(o.h_simple_, static_cast<NodeId>(v), w, work.bfs, work.ball,
                 std::span<std::uint32_t>(o.ball_counts_).subspan(v * w, w));
      });
  return o;
}

std::span<const BallEntry> Overlay::g_row(NodeId v,
                                          RowScratch& scratch) const {
  bfs_ball(h_simple_, v, k_, scratch.bfs, scratch.ball);
  const auto others = std::span<BallEntry>(scratch.ball).subspan(1);
  sort_ball_by_node(others, num_nodes(), scratch.tmp);
  return others;
}

const Overlay::Degrees& Overlay::count_degrees() const {
  Lazy<Degrees>& lazy = *degrees_;
  const std::lock_guard<std::mutex> lock(lazy.mutex);
  if (const Degrees* t = lazy.ready.load(std::memory_order_relaxed)) return *t;

  const NodeId n = num_nodes();
  Degrees degrees(n);
  if (const Balls* b = balls_->ready.load(std::memory_order_acquire)) {
    for (NodeId v = 0; v < n; ++v) {
      degrees[v] = static_cast<std::uint32_t>(b->g.degree(v));
    }
  } else {
    obs::Span degrees_span("graph.g_degrees");
    util::parallel_for(
        n, kBallGrain, 0, [](unsigned) { return RowScratch{}; },
        [&](RowScratch& work, std::uint64_t v) {
          bfs_ball(h_simple_, static_cast<NodeId>(v), k_, work.bfs, work.ball);
          degrees[v] = static_cast<std::uint32_t>(work.ball.size() - 1);
        });
  }
  lazy.value = std::move(degrees);
  lazy.ready.store(&lazy.value, std::memory_order_release);
  return lazy.value;
}

const Overlay::Balls& Overlay::materialize() const {
  Lazy<Balls>& lazy = *balls_;
  const std::lock_guard<std::mutex> lock(lazy.mutex);
  if (const Balls* b = lazy.ready.load(std::memory_order_relaxed)) return *b;

  obs::Span g_pass_span("graph.g_pass");
  const NodeId n = num_nodes();
  const std::uint64_t stride = ball_stride(n, params_.d, k_);

  // Each row, sorted by neighbor id so the Graph invariants (sorted
  // adjacency) hold, lands at v * stride; offsets[v + 1] holds its size
  // until the prefix sum below.
  Graph::OffsetVec offsets(static_cast<std::size_t>(n) + 1, 0);
  Graph::NeighborVec nodes(n * stride);
  util::parallel_for(
      n, kBallGrain, 0, [](unsigned) { return RowScratch{}; },
      [&](RowScratch& work, std::uint64_t v) {
        const auto row = g_row(static_cast<NodeId>(v), work);
        if (row.size() > stride) {
          throw std::logic_error("Overlay: k-ball exceeds the degree bound");
        }
        const std::uint64_t base = v * stride;
        for (std::size_t i = 0; i < row.size(); ++i) {
          nodes[base + i] = row[i].node;
        }
        offsets[v + 1] = row.size();
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
  }
  nodes.resize(offsets.back());

  lazy.value.bytes = offsets.size() * sizeof(std::uint64_t) +
                     nodes.capacity() * sizeof(NodeId);
  lazy.value.g = Graph::from_csr(std::move(offsets), std::move(nodes));
  lazy.ready.store(&lazy.value, std::memory_order_release);
  return lazy.value;
}

std::uint64_t Overlay::memory_bytes() const noexcept {
  const Balls* b = balls_->ready.load(std::memory_order_acquire);
  const Degrees* t = degrees_->ready.load(std::memory_order_acquire);
  return h_.memory_bytes() + h_simple_.memory_bytes() +
         ball_counts_.size() * sizeof(std::uint32_t) +
         (t != nullptr ? t->size() * sizeof(std::uint32_t) : 0) +
         (b != nullptr ? b->bytes : 0);
}

}  // namespace byz::graph
