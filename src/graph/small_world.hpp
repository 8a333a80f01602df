// The small-world overlay of §2.1: G = H ∪ L where (u,v) ∈ E(L) iff
// dist_H(u,v) <= k, k = ceil(d/3). Adding L raises the clustering
// coefficient (neighbors of a node are interconnected) while H supplies the
// expansion; Algorithm 2 exploits both. Nodes do NOT know which of their
// G-edges are H-edges — the protocol reconstructs that (Lemma 3) — but the
// simulator of course does.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace byz::graph {

struct OverlayParams {
  NodeId n = 0;
  std::uint32_t d = 8;       ///< H-degree; even, >= 4
  std::uint32_t k = 0;       ///< L-radius; 0 means the paper's ceil(d/3)
  std::uint64_t seed = 1;    ///< drives the H(n,d) sample
  /// Topology build tag: 0 = the static H(n,d) sample determined by `seed`;
  /// dynamics::MutableOverlay snapshots stamp their (nonzero) mutation
  /// generation here, so caches keyed on the full params can never alias an
  /// epoch snapshot with the static overlay of the same (n, d, seed).
  std::uint64_t generation = 0;
};

/// Distance value meaning "w is not within v's k-ball".
inline constexpr std::uint8_t kNotInBall = 0xFF;

/// The paper's k = ceil(d/3).
[[nodiscard]] constexpr std::uint32_t paper_k(std::uint32_t d) noexcept {
  return (d + 2) / 3;
}

/// Columns of the witness-count table: Algorithm 2 line 15 interrogates
/// B_H(w, min(t, k-1)), so the colour audit bills |B_H(v, r)| only for
/// r = 1..max(k-1, 1) (k = 1 still bills the 1-ball).
[[nodiscard]] constexpr std::uint32_t witness_width(std::uint32_t k) noexcept {
  return k > 1 ? k - 1 : 1;
}

/// A sampled overlay. Built eagerly: the H multigraph, its simple view and
/// the cumulative ball counts |B_H(v, r)|, r = 1..witness_width(k). Built
/// once, on first read: G = the dedup'd k-ball adjacency, annotated with
/// the exact H-distance of each slot. The adjacency exchange and its crash
/// rule, the liar strategies, rewired chains, smoothing, the message-level
/// engine and the categories read G; a BRC run reads none of them and
/// never builds it.
class Overlay {
 public:
  /// Samples H(n,d) (span `graph.h_sample`), then build_from_h.
  [[nodiscard]] static Overlay build(const OverlayParams& params);

  /// The eager part over a caller-supplied H multigraph (must be an exactly
  /// d-regular multigraph on params.n nodes; parallel edges allowed): the
  /// simple view, then one bounded BFS per node to depth
  /// w = witness_width(k) for the ball counts (span `graph.ball_counts`,
  /// on util::parallel_for, so inline inside a trial worker).
  /// dynamics::MutableOverlay uses it to turn an epoch's cycle state into
  /// the immutable overlay the protocols run on; params.seed/generation are
  /// recorded as provenance, not re-sampled.
  ///
  /// G is built by the first g(), g_dists() or h_dist() call (span
  /// `graph.g_pass`, nested under that reader): one bounded BFS to depth k
  /// and one radix sort per node (graph::sort_ball_by_node), each ball
  /// written at a fixed stride of min(sum_{i=1..k} d(d-1)^(i-1), n-1)
  /// slots — h_simple has degree <= d, so no ball exceeds it — then the
  /// rows are compacted in place into CSR. The stride buffer, n * stride *
  /// 5 bytes, is the peak and stays G's storage. At d = 8, k = 3 the
  /// stride is 456 and the balls fill 99.7% of it at n = 2^16; as the
  /// bound nears n they overlap and fill less (66% at n = 512), and once
  /// it reaches n - 1 the buffer is n(n-1) * 5 bytes. Concurrent first
  /// readers block until the one build is done; a build that throws
  /// publishes nothing, and the next reader retries.
  [[nodiscard]] static Overlay build_from_h(const OverlayParams& params,
                                            Graph h);

  [[nodiscard]] const OverlayParams& params() const noexcept { return params_; }
  [[nodiscard]] std::uint32_t k() const noexcept { return k_; }
  [[nodiscard]] NodeId num_nodes() const noexcept { return h_.num_nodes(); }

  [[nodiscard]] const Graph& h() const noexcept { return h_; }
  [[nodiscard]] const Graph& h_simple() const noexcept { return h_simple_; }
  /// G; the first read of G builds it (see build_from_h). Loops fetch it
  /// once.
  [[nodiscard]] const Graph& g() const { return balls().g; }

  /// H-distances aligned with g().neighbors(v); values in [1, k].
  [[nodiscard]] std::span<const std::uint8_t> g_dists(NodeId v) const {
    const Balls& b = balls();
    return {b.dist.data() + b.g.first_slot(v), b.g.degree(v)};
  }

  /// |B_H(v, r)| for r = 1..witness_width(k), v itself included: the
  /// witness counts Algorithm 2's colour audit bills (Lemmas 15/16). The
  /// k-ball itself is G's row; no reader needs its size.
  [[nodiscard]] std::span<const std::uint32_t> ball_row(NodeId v) const {
    const std::uint32_t w = witness_width(k_);
    return {ball_counts_.data() + static_cast<std::size_t>(v) * w, w};
  }

  /// Every ball_row, row-major: entry v*w + (r-1) is |B_H(v, r)|, with
  /// w = witness_width(k).
  [[nodiscard]] std::span<const std::uint32_t> ball_counts() const noexcept {
    return ball_counts_;
  }

  /// Exact H-distance from v to w if w lies within v's k-ball, else
  /// kNotInBall. O(log deg_G(v)); reads G.
  [[nodiscard]] std::uint8_t h_dist(NodeId v, NodeId w) const;

  /// v's H-neighbors (distance exactly 1 within G's annotation); equals
  /// h_simple().neighbors(v).
  [[nodiscard]] std::span<const NodeId> h_neighbors(NodeId v) const {
    return h_simple_.neighbors(v);
  }

  /// Bytes the overlay holds now: H, its simple view, the ball counts and,
  /// once built, G with its whole stride buffer.
  [[nodiscard]] std::uint64_t memory_bytes() const noexcept;

 private:
  struct Balls {
    Graph g;
    std::vector<std::uint8_t> dist;  ///< aligned with g's slots
    std::uint64_t bytes = 0;         ///< allocated, spare capacity included
  };
  /// G's holder, on the heap so that references to G stay valid when the
  /// Overlay moves.
  struct LazyBalls {
    std::mutex mutex;  ///< held by the one build
    std::atomic<const Balls*> ready{nullptr};  ///< &balls once built
    Balls balls;
  };

  [[nodiscard]] const Balls& balls() const {
    const Balls* b = lazy_->ready.load(std::memory_order_acquire);
    return b != nullptr ? *b : materialize();
  }
  /// Builds G under the holder's mutex unless another reader already did.
  const Balls& materialize() const;

  OverlayParams params_;
  std::uint32_t k_ = 0;
  Graph h_;
  Graph h_simple_;
  std::vector<std::uint32_t> ball_counts_;  ///< n*witness_width(k), ball_row
  std::unique_ptr<LazyBalls> lazy_ = std::make_unique<LazyBalls>();
};

}  // namespace byz::graph
