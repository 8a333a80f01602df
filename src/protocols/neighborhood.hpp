// Setup stage of Algorithm 2 (lines 1-2) and Lemma 3:
//   1. every node presents its G-adjacency list to its G-neighbors,
//   2. each honest node v cross-checks the claims pairwise: if u asserts
//      "w is (not) my neighbor" while w asserts the opposite, v has received
//      contradictory information and crashes (goes into crash failure),
//   3. absent conflicts, v reconstructs the H-vs-L classification of its
//      edges via the subset criterion in Lemma 3's proof.
//
// A truthful claim is G-adjacency and G is symmetric, so a pair of claims
// can conflict only where one side lies about the other: every conflict
// lies in some liar u's diff set Δ(u) = claimed(u) △ N_G(u). The crash-set
// computation therefore visits liars only. An honest v crashes iff a liar
// u ∈ N_G(v) denies v, or some real w ∈ Δ(u) ∩ N_G(v), w ≠ u, claims the
// edge {u, w} the other way round (w's side is read from its own claim:
// two liars can lie consistently). It reads no G: the setup accounting
// takes the overlay's degree table (the sizes of one BFS per node, or G's
// row lengths once G is built), and the balls of the liars and of the
// members of their diff sets come from Overlay::g_row, one bounded BFS
// each. A run without liars thus costs the table plus O(n), one with
// liars O(Σ_liars (1 + |Δ(u)|)·|B_H(·, k)|) more. The message-level
// engine keeps the full per-node pairwise check over G as the independent
// oracle.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "graph/small_world.hpp"
#include "sim/instrumentation.hpp"

namespace byz::proto {

/// Adjacency claims: honest nodes implicitly claim the truth; Byzantine
/// nodes may override their claimed list (one list, shown to everyone —
/// IDs cannot be faked per §2.1, but lists can lie).
class ClaimSet {
 public:
  explicit ClaimSet(const graph::Overlay& overlay)
      : overlay_(&overlay), overrides_(overlay.num_nodes()) {}

  /// Installs a lying claim for node u (sorted internally).
  void set_claim(graph::NodeId u, std::vector<graph::NodeId> claimed);

  /// The list u presents (truth unless overridden); reads G.
  [[nodiscard]] std::span<const graph::NodeId> claimed(graph::NodeId u) const {
    return claimed(u, overlay_->g());
  }

  /// claimed(u) for loops that fetch `g` = overlay().g() once.
  [[nodiscard]] std::span<const graph::NodeId> claimed(
      graph::NodeId u, const graph::Graph& g) const {
    return overrides_[u] ? lie(u) : g.neighbors(u);
  }

  /// True iff u presents the truth.
  [[nodiscard]] bool truthful(graph::NodeId u) const {
    return !overrides_[u].has_value();
  }

  /// The list liar u presents, sorted and deduplicated; reads no G. Throws
  /// std::bad_optional_access if u is truthful.
  [[nodiscard]] std::span<const graph::NodeId> lie(graph::NodeId u) const {
    return overrides_[u].value();
  }

  [[nodiscard]] const graph::Overlay& overlay() const { return *overlay_; }

 private:
  const graph::Overlay* overlay_;
  std::vector<std::optional<std::vector<graph::NodeId>>> overrides_;
};

/// Algorithm 2 line 2, for a single node: does v receive contradictory
/// claims from two of its G-neighbors? (Pairwise XOR test.) Exact but
/// O(deg^2); used by tests and small-n runs.
[[nodiscard]] bool detects_conflict(const ClaimSet& claims, graph::NodeId v);

/// Crash set over all honest nodes, computed from the liars' diff sets
/// (equal to running detects_conflict everywhere — see the equivalence
/// test). Counts setup traffic and crashes into `instr` if given. Reads the
/// overlay's degree table and g_row, never G.
[[nodiscard]] std::vector<bool> compute_crash_set(
    const ClaimSet& claims, const std::vector<bool>& byz_mask,
    sim::Instrumentation* instr = nullptr);

/// Lemma-3 reconstruction result for one node.
struct Reconstruction {
  bool conflict = false;                      ///< v would crash
  std::vector<graph::NodeId> h_neighbors;     ///< believed distance-1 nodes
};

/// Reconstructs v's believed H-neighborhood from the claims: the maximal
/// elements of the intersection partial order {N(u) ∩ N(v) : u ∈ N(v)}.
/// With truthful claims and a locally tree-like neighborhood this equals
/// the true H-neighbor set (Lemma 3); the unit tests assert exactly that.
[[nodiscard]] Reconstruction reconstruct_neighborhood(const ClaimSet& claims,
                                                      graph::NodeId v);

}  // namespace byz::proto
