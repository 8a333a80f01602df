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

#include "graph/bfs.hpp"
#include "graph/graph.hpp"

namespace byz::graph {

struct OverlayParams {
  NodeId n = 0;
  std::uint32_t d = 8;       ///< H-degree; even, >= 4
  std::uint32_t k = 0;       ///< L-radius; 0 means the paper's ceil(d/3)
  std::uint64_t seed = 1;    ///< drives the H(n,d) sample
};

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

/// One caller's scratch for Overlay::g_row and the overlay's per-node BFS
/// passes.
struct RowScratch {
  BfsScratch bfs;
  std::vector<BallEntry> ball;
  std::vector<BallEntry> tmp;
};

/// A sampled overlay. Built eagerly: the H multigraph, its simple view and
/// the cumulative ball counts |B_H(v, r)|, r = 1..witness_width(k). Built
/// once, on first read: the G-degree table, and G = the dedup'd k-ball
/// adjacency, node ids only (g_row gives a row's H-distances). The setup
/// stage reads no G: its accounting takes the degree table, and the crash
/// rule, the liar strategies and the rewired chains take the few balls
/// they need from g_row. A static run still reads G in its setup (its
/// overlay is smoothed over or shared next), as do smoothing, the
/// message-level engine and the categories; a live (mid-run churn) run or
/// a BRC run never builds it.
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
  /// the immutable overlay the protocols run on; params.seed is recorded
  /// as provenance, not re-sampled.
  ///
  /// G is built by the first g() call (span `graph.g_pass`, nested under
  /// that reader): one g_row per node, each row's ids written at a fixed
  /// stride of min(sum_{i=1..k} d(d-1)^(i-1), n-1) slots — h_simple has
  /// degree <= d, so no ball exceeds it — then the rows are compacted in
  /// place into CSR. The stride buffer, n * stride * 4 bytes, is the peak
  /// and stays G's storage. At d = 8, k = 3 the stride is 456 and the
  /// balls fill 99.7% of it at n = 2^16; as the bound nears n they overlap
  /// and fill less (66% at n = 512), and once it reaches n - 1 the buffer
  /// is n(n-1) * 4 bytes. Concurrent first readers block until the one
  /// build is done; a build that throws publishes nothing, and the next
  /// reader retries. The degree table is built the same way, by the first
  /// g_degrees() call.
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

  /// G's degrees, |B_H(v, k)| - 1 per node: the list lengths of the
  /// adjacency exchange. Built on the first call: off G's row lengths if G
  /// is built, else by one bounded BFS per node on h_simple, of which only
  /// the size is kept (span `graph.g_degrees`, on util::parallel_for, so
  /// inline inside a trial worker; no sort, no row written); n * 4 bytes.
  /// Never builds G.
  [[nodiscard]] std::span<const std::uint32_t> g_degrees() const {
    const Degrees* t = degrees_->ready.load(std::memory_order_acquire);
    return t != nullptr ? *t : count_degrees();
  }

  /// v's G-row without reading G: its k-ball on h_simple less v itself,
  /// sorted by id, each entry with its H-distance in [1, k] (the nodes are
  /// g().neighbors(v), slot for slot). One bounded BFS and one
  /// graph::sort_ball_by_node; the view lives in `scratch` until its next
  /// use. G's build makes every row with it.
  [[nodiscard]] std::span<const BallEntry> g_row(NodeId v,
                                                 RowScratch& scratch) const;

  /// v's H-neighbors (its G-neighbors at H-distance 1); equals
  /// h_simple().neighbors(v).
  [[nodiscard]] std::span<const NodeId> h_neighbors(NodeId v) const {
    return h_simple_.neighbors(v);
  }

  /// Bytes the overlay holds now: H, its simple view, the ball counts and,
  /// once built, the degree table and G with its whole stride buffer.
  [[nodiscard]] std::uint64_t memory_bytes() const noexcept;

 private:
  struct Balls {
    Graph g;
    std::uint64_t bytes = 0;  ///< allocated, spare capacity included
  };
  using Degrees = std::vector<std::uint32_t>;
  /// The holder of G or of the degree table, on the heap so that references
  /// to its value stay valid when the Overlay moves.
  template <class T>
  struct Lazy {
    std::mutex mutex;  ///< held by the one build
    std::atomic<const T*> ready{nullptr};  ///< &value once built
    T value;
  };

  [[nodiscard]] const Balls& balls() const {
    const Balls* b = balls_->ready.load(std::memory_order_acquire);
    return b != nullptr ? *b : materialize();
  }
  /// Builds G under the holder's mutex unless another reader already did.
  const Balls& materialize() const;
  /// Builds the degree table under its holder's mutex unless another reader
  /// already did.
  const Degrees& count_degrees() const;

  OverlayParams params_;
  std::uint32_t k_ = 0;
  Graph h_;
  Graph h_simple_;
  std::vector<std::uint32_t> ball_counts_;  ///< n*witness_width(k), ball_row
  std::unique_ptr<Lazy<Balls>> balls_ = std::make_unique<Lazy<Balls>>();
  std::unique_ptr<Lazy<Degrees>> degrees_ = std::make_unique<Lazy<Degrees>>();
};

}  // namespace byz::graph
