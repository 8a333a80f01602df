#include "protocols/neighborhood.hpp"

#include <algorithm>
#include <stdexcept>

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
  const auto& g = overlay.g();
  const NodeId n = g.num_nodes();
  if (byz_mask.size() != n) {
    throw std::invalid_argument("compute_crash_set: mask size mismatch");
  }
  std::vector<bool> crashed(n, false);

  if (instr != nullptr) {
    // Every node ships its claimed list to each G-neighbor once.
    for (NodeId u = 0; u < n; ++u) {
      instr->count_setup_list(claims.claimed(u, g).size(), g.degree(u));
    }
  }

  // Only a liar's diff set Δ(u) = claimed(u) △ N_G(u) can differ from
  // G-adjacency, and G is symmetric, so a pair (u, w) disagrees only if one
  // side lies about the other: walking each liar's Δ finds every conflict.
  const auto crash = [&](NodeId v) {
    if (!byz_mask[v]) crashed[v] = true;
  };
  std::vector<NodeId> diff;
  for (NodeId u = 0; u < n; ++u) {
    if (claims.truthful(u)) continue;
    const auto real = g.neighbors(u);
    const auto said = claims.claimed(u, g);
    // Merge-walk the sorted lists; diff keeps the real ids of Δ(u)
    // (fabricated ids past n are seen by no G-neighbor; a self-claim
    // w = u always agrees with itself in the pair test below).
    diff.clear();
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < real.size() || j < said.size()) {
      if (j == said.size() || (i < real.size() && real[i] < said[j])) {
        crash(real[i]);  // u denies the channel its holder knows exists
        diff.push_back(real[i++]);
      } else if (i == real.size() || said[j] < real[i]) {
        const NodeId w = said[j++];
        if (w < n) diff.push_back(w);
      } else {
        ++i;
        ++j;
      }
    }
    // A disagreeing pair crashes the common G-neighbors of u and w, all of
    // them in N_G(u): once u's denials alone crashed every honest member of
    // N_G(u) (E10's empty lie), the pairs can add nothing.
    if (std::all_of(real.begin(), real.end(),
                    [&](NodeId v) { return byz_mask[v] || crashed[v]; })) {
      continue;
    }
    for (const NodeId w : diff) {
      // w's side comes from its own claim: two liars can lie consistently.
      if (claims_edge(claims, g, u, w) == claims_edge(claims, g, w, u)) {
        continue;
      }
      const auto other = g.neighbors(w);
      auto a = real.begin();
      auto b = other.begin();
      while (a != real.end() && b != other.end()) {
        if (*a < *b) {
          ++a;
        } else if (*b < *a) {
          ++b;
        } else {
          crash(*a);
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
