#include "protocols/verification.hpp"

#include <algorithm>
#include <stdexcept>

#include "graph/bfs.hpp"

namespace byz::proto {

using graph::NodeId;

namespace {

void path_dfs(const graph::Graph& h, const std::vector<bool>& byz,
              std::vector<bool>& on_path, NodeId v, std::uint32_t depth,
              std::uint32_t cap, std::uint32_t& best) {
  best = std::max(best, depth);
  if (best >= cap) return;
  for (const NodeId w : h.neighbors(v)) {
    if (byz[w] && !on_path[w]) {
      on_path[w] = true;
      path_dfs(h, byz, on_path, w, depth + 1, cap, best);
      on_path[w] = false;
      if (best >= cap) return;
    }
  }
}

/// byz_path_ending_at for a Byzantine `endpoint` over caller scratch:
/// `on_path` is all false on entry and on return (every frame clears its
/// entry as it pops).
std::uint32_t longest_byz_path(const graph::Graph& h,
                               const std::vector<bool>& byz,
                               std::vector<bool>& on_path, NodeId endpoint,
                               std::uint32_t cap) {
  on_path[endpoint] = true;
  std::uint32_t best = 1;
  path_dfs(h, byz, on_path, endpoint, 1, cap, best);
  on_path[endpoint] = false;
  return best;
}

/// The chain models' scratch: the strict model's DFS mask (all false; left
/// all false) and the rewired model's BFS.
struct ChainScratch {
  std::vector<bool> on_path;
  graph::BfsScratch bfs;
  std::vector<graph::BallEntry> ball;
};

/// verifier_chain_len over caller scratch.
std::uint8_t chain_len(const graph::Overlay& overlay,
                       const std::vector<bool>& byz_mask, NodeId v,
                       ChainModel model, ChainScratch& scratch) {
  if (!byz_mask[v]) return 0;
  const std::uint32_t k = overlay.k();
  if (model == ChainModel::kStrict) {
    scratch.on_path.resize(overlay.num_nodes(), false);
    return static_cast<std::uint8_t>(std::min<std::uint32_t>(
        longest_byz_path(overlay.h_simple(), byz_mask, scratch.on_path, v,
                         k + 1),
        255));
  }
  // kRewired: Byzantine nodes within B_H(v, k-1) (v included) can pose as
  // a chain by claiming fake Byz-Byz H-edges that survive the crash rule.
  graph::bfs_ball(overlay.h_simple(), v, k - 1, scratch.bfs, scratch.ball);
  const auto count = static_cast<std::uint32_t>(std::count_if(
      scratch.ball.begin(), scratch.ball.end(),
      [&](const graph::BallEntry& e) { return byz_mask[e.node]; }));
  return static_cast<std::uint8_t>(std::min<std::uint32_t>(count, 255));
}

}  // namespace

const char* to_string(MembershipPolicy policy) {
  switch (policy) {
    case MembershipPolicy::kTreatAsSilent: return "treat-as-silent";
    case MembershipPolicy::kReadmitNextPhase: return "readmit-next-phase";
  }
  return "?";
}

std::uint32_t byz_path_ending_at(const graph::Graph& h_simple,
                                 const std::vector<bool>& byz_mask,
                                 NodeId endpoint, std::uint32_t cap) {
  if (!byz_mask[endpoint]) return 0;
  std::vector<bool> on_path(h_simple.num_nodes(), false);
  return longest_byz_path(h_simple, byz_mask, on_path, endpoint, cap);
}

std::uint8_t verifier_chain_len(const graph::Overlay& overlay,
                                const std::vector<bool>& byz_mask, NodeId v,
                                ChainModel model) {
  ChainScratch scratch;
  return chain_len(overlay, byz_mask, v, model, scratch);
}

std::vector<std::uint8_t> verifier_chains(const graph::Overlay& overlay,
                                          const std::vector<bool>& byz_mask,
                                          ChainModel model) {
  const NodeId n = overlay.num_nodes();
  if (byz_mask.size() != n) {
    throw std::invalid_argument("Verifier: mask size mismatch");
  }
  std::vector<std::uint8_t> chains(n, 0);
  ChainScratch scratch;
  for (NodeId v = 0; v < n; ++v) {
    if (byz_mask[v]) {
      chains[v] = chain_len(overlay, byz_mask, v, model, scratch);
    }
  }
  return chains;
}

Verifier::Verifier(const graph::Overlay& overlay,
                   const std::vector<bool>& byz_mask,
                   VerificationConfig config)
    : Verifier(overlay.k(), overlay.ball_counts(),
               verifier_chains(overlay, byz_mask, config.chain_model),
               config) {}

Verifier::Verifier(std::uint32_t k, std::span<const std::uint32_t> ball_counts,
                   std::vector<std::uint8_t> chain_len,
                   VerificationConfig config)
    : config_(config),
      k_(k),
      w_(graph::witness_width(k)),
      ball_counts_(ball_counts),
      chain_len_(std::move(chain_len)) {
  // One w-wide row per chain entry, so every id with a chain has a row.
  if (k_ == 0 || ball_counts_.size() != chain_len_.size() * w_) {
    throw std::invalid_argument("Verifier: ball-count table size mismatch");
  }
}

std::uint64_t Verifier::check_ball_size(NodeId sender,
                                        std::uint32_t step) const {
  // Radius min(step, k-1), at least 1: column min(max(step, 1), w).
  const std::uint32_t r =
      std::min<std::uint32_t>(std::max<std::uint32_t>(step, 1), w_);
  return ball_counts_[static_cast<std::size_t>(sender) * w_ + (r - 1)];
}

std::uint32_t Verifier::usable_chain(NodeId endpoint) const {
  return chain_len_[endpoint];
}

bool Verifier::accept(NodeId sender, Color c, std::uint32_t step,
                      Color legit_fresh, bool sender_is_byz,
                      sim::Instrumentation& instr) const {
  if (!config_.enabled) {
    // Algorithm-1 behavior: everything is believed, no traffic.
    if (sender_is_byz && c != legit_fresh) {
      ++instr.injections_attempted;
      ++instr.injections_accepted;
    }
    return true;
  }
  instr.count_verification(check_ball_size(sender, step));
  if (c == legit_fresh) {
    return true;  // protocol-conformant forward (or honest generation)
  }
  if (step == 1) {
    // Unauditable generation claim; count Byzantine deviations.
    if (sender_is_byz && c != legit_fresh) {
      ++instr.injections_attempted;
      ++instr.injections_accepted;
    }
    return true;
  }
  // Fabricated provenance: needs a Byzantine chain of min(step, k).
  const std::uint32_t need = std::min<std::uint32_t>(step, k_);
  const bool ok = sender_is_byz && usable_chain(sender) >= need;
  if (sender_is_byz) {
    ++instr.injections_attempted;
    if (ok) {
      ++instr.injections_accepted;
    } else {
      ++instr.injections_caught;
    }
  }
  return ok;
}

void Verifier::book_conformant(NodeId sender, std::uint32_t step,
                               std::uint64_t receivers,
                               sim::Instrumentation& instr) const {
  if (!config_.enabled || receivers == 0) return;
  instr.count_verification(receivers * check_ball_size(sender, step));
}

}  // namespace byz::proto
