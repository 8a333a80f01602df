#include "protocols/neighborhood.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace byz::proto {

using graph::NodeId;

void ClaimSet::set_claim(NodeId u, std::vector<NodeId> claimed) {
  std::sort(claimed.begin(), claimed.end());
  claimed.erase(std::unique(claimed.begin(), claimed.end()), claimed.end());
  overrides_[u] = std::move(claimed);
}

namespace {

/// Membership test in a sorted claim list; `g` is claims.overlay().g().
bool claims_edge(const ClaimSet& claims, const graph::Graph& g, NodeId u,
                 NodeId w) {
  const auto list = claims.claimed(u, g);
  return std::binary_search(list.begin(), list.end(), w);
}

}  // namespace

bool detects_conflict(const ClaimSet& claims, NodeId v) {
  const auto& g = claims.overlay().g();
  const auto nbrs = g.neighbors(v);
  for (std::size_t a = 0; a < nbrs.size(); ++a) {
    // A neighbor denying the very channel v holds to it is a contradiction
    // v can observe directly (ids cannot be faked on channels, §2.1).
    if (!claims_edge(claims, g, nbrs[a], v)) return true;
    for (std::size_t b = a + 1; b < nbrs.size(); ++b) {
      const NodeId u = nbrs[a];
      const NodeId w = nbrs[b];
      if (claims_edge(claims, g, u, w) != claims_edge(claims, g, w, u)) {
        return true;
      }
    }
  }
  return false;
}

std::vector<bool> compute_crash_set(const ClaimSet& claims,
                                    const std::vector<bool>& byz_mask,
                                    sim::Instrumentation* instr) {
  const auto& overlay = claims.overlay();
  const NodeId n = overlay.num_nodes();
  if (byz_mask.size() != n) {
    throw std::invalid_argument("compute_crash_set: mask size mismatch");
  }
  std::vector<bool> crashed(n, false);

  if (instr != nullptr) {
    // Every node ships its claimed list to each G-neighbor once.
    const auto degrees = overlay.g_degrees();
    for (NodeId u = 0; u < n; ++u) {
      const std::uint64_t len =
          claims.truthful(u) ? degrees[u] : claims.lie(u).size();
      instr->count_setup_list(len, degrees[u]);
    }
  }

  // Only a liar's diff set Δ(u) = claimed(u) △ N_G(u) can differ from
  // G-adjacency, and G is symmetric, so a pair (u, w) disagrees only if one
  // side lies about the other: walking each liar's Δ finds every conflict.
  const auto crash = [&](NodeId v) {
    if (!byz_mask[v]) crashed[v] = true;
  };
  graph::RowScratch u_scratch;
  graph::RowScratch w_scratch;
  // The real ids of Δ(u), each with u's claim about it.
  std::vector<std::pair<NodeId, bool>> diff;
  for (NodeId u = 0; u < n; ++u) {
    if (claims.truthful(u)) continue;
    const auto real = overlay.g_row(u, u_scratch);
    const auto said = claims.lie(u);
    // Merge-walk the sorted lists (fabricated ids past n are seen by no
    // G-neighbor; a self-claim w = u always agrees with itself in the pair
    // test below).
    diff.clear();
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < real.size() || j < said.size()) {
      if (j == said.size() || (i < real.size() && real[i].node < said[j])) {
        const NodeId w = real[i++].node;
        crash(w);  // u denies the channel its holder knows exists
        diff.emplace_back(w, false);
      } else if (i == real.size() || said[j] < real[i].node) {
        const NodeId w = said[j++];
        if (w < n) diff.emplace_back(w, true);
      } else {
        ++i;
        ++j;
      }
    }
    // A disagreeing pair crashes the common G-neighbors of u and w, all of
    // them in N_G(u): once u's denials alone crashed every honest member of
    // N_G(u) (E10's empty lie), the pairs can add nothing.
    if (std::all_of(real.begin(), real.end(), [&](const graph::BallEntry& e) {
          return byz_mask[e.node] || crashed[e.node];
        })) {
      continue;
    }
    for (const auto& [w, u_claims_w] : diff) {
      // w's side: the truth, which u's claim contradicts since w ∈ Δ(u)
      // (w claims u iff w ∈ N_G(u), by symmetry), unless w lies too: two
      // liars can lie consistently.
      const bool w_claims_u =
          claims.truthful(w) ? !u_claims_w
                             : std::ranges::binary_search(claims.lie(w), u);
      if (w_claims_u == u_claims_w) continue;
      const auto other = overlay.g_row(w, w_scratch);
      auto a = real.begin();
      auto b = other.begin();
      while (a != real.end() && b != other.end()) {
        if (a->node < b->node) {
          ++a;
        } else if (b->node < a->node) {
          ++b;
        } else {
          crash(a->node);
          ++a;
          ++b;
        }
      }
    }
  }
  if (instr != nullptr) {
    instr->crashes += static_cast<std::uint64_t>(
        std::count(crashed.begin(), crashed.end(), true));
  }
  return crashed;
}

Reconstruction reconstruct_neighborhood(const ClaimSet& claims, NodeId v) {
  Reconstruction rec;
  rec.conflict = detects_conflict(claims, v);
  if (rec.conflict) return rec;

  const auto& g = claims.overlay().g();
  const auto nbrs = g.neighbors(v);
  const std::size_t deg = nbrs.size();

  // Bitset rows: I_u = N_G[u] ∩ N_G(v) with CLOSED neighborhoods (u ∈ N[u]),
  // indexed by position in nbrs. Closure is what makes the Lemma-3 subset
  // order work: a child's intersection contains its parent, so the parent
  // must appear in its own set for the containment to be strict.
  const std::size_t words = (deg + 63) / 64;
  std::vector<std::uint64_t> rows(deg * words, 0);
  for (std::size_t a = 0; a < deg; ++a) {
    rows[a * words + a / 64] |= (1ULL << (a % 64));  // self (closure)
    const auto list = claims.claimed(nbrs[a], g);
    // Walk the two sorted sequences in tandem.
    std::size_t bi = 0;
    for (const NodeId w : list) {
      while (bi < deg && nbrs[bi] < w) ++bi;
      if (bi == deg) break;
      if (nbrs[bi] == w) {
        rows[a * words + bi / 64] |= (1ULL << (bi % 64));
      }
    }
  }

  auto strict_subset = [&](std::size_t a, std::size_t b) {
    // I_a ⊂ I_b (strict)?
    bool equal = true;
    for (std::size_t w = 0; w < words; ++w) {
      const std::uint64_t ra = rows[a * words + w];
      const std::uint64_t rb = rows[b * words + w];
      if ((ra & ~rb) != 0) return false;  // something in a not in b
      if (ra != rb) equal = false;
    }
    return !equal;
  };

  // H-neighbors = maximal elements of the intersection order.
  for (std::size_t a = 0; a < deg; ++a) {
    bool maximal = true;
    for (std::size_t b = 0; b < deg && maximal; ++b) {
      if (b != a && strict_subset(a, b)) maximal = false;
    }
    if (maximal) rec.h_neighbors.push_back(nbrs[a]);
  }
  return rec;
}

}  // namespace byz::proto
