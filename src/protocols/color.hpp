// Color machinery (§3.1): a node's color is the index of the first head in
// a fair-coin sequence, i.e. Pr[c = r] = 2^-r. The protocol compares the
// maximum color seen against the per-phase threshold
//   thr(i) = l_i - log2(l_i),  l_i = log2 d + (i-1) log2(d-1)
// (Algorithm 1 line 16 / Algorithm 2 line 18 — the two lines are the same
// quantity written differently; see DESIGN.md §3.5).
#pragma once

#include <cstdint>

#include "util/rng.hpp"

namespace byz::proto {

using Color = std::uint32_t;

/// Draws one geometric color (>= 1).
[[nodiscard]] inline Color draw_color(util::Xoshiro256& rng) noexcept {
  return util::geometric_color(rng);
}

/// l_r = log2 d + r·log2(d-1): log of the tree-ball boundary size used by
/// the analysis (Lemma 6, up to the constant terms spelled out there).
[[nodiscard]] double ell(std::uint32_t d, std::uint32_t r);

/// The continuation threshold of phase i: a node only treats the phase as
/// "still growing" if the round-i maximum exceeds thr(i).
[[nodiscard]] double continue_threshold(std::uint32_t i, std::uint32_t d);

/// Deterministic per-(seed, node, subphase) color: random access into the
/// protocol's coin table. The full-information adversary reads future
/// subphases through the same function, which is exactly the model's
/// "Byzantine nodes know future random choices".
[[nodiscard]] Color color_at(std::uint64_t color_seed, std::uint32_t node,
                             std::uint32_t global_subphase) noexcept;

/// The node's half of color_at's key: color_at(seed, v, s) ==
/// color_at_node(node_color_seed(seed, v), s). A caller drawing several
/// subphases of one node derives it once.
[[nodiscard]] constexpr std::uint64_t node_color_seed(
    std::uint64_t color_seed, std::uint32_t node) noexcept {
  return util::mix_seed(color_seed, node);
}

/// color_at with the node's key precomputed (node_color_seed).
[[nodiscard]] Color color_at_node(std::uint64_t node_seed,
                                  std::uint32_t global_subphase) noexcept;

/// Probability helpers matching Observation 4 (used by tests).
[[nodiscard]] double prob_color_eq(std::uint32_t r);        ///< Pr[c = r]
[[nodiscard]] double prob_color_ge(std::uint32_t r);        ///< Pr[c >= r]
[[nodiscard]] double prob_max_color_le(std::uint32_t r, double n);  ///< Obs 5.3

}  // namespace byz::proto
