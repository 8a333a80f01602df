#include "protocols/verification.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>

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
  on_path[endpoint] = true;
  std::uint32_t best = 1;
  path_dfs(h_simple, byz_mask, on_path, endpoint, 1, cap, best);
  return best;
}

void verifier_ball_row(const graph::Overlay& overlay, NodeId v,
                       std::uint32_t* out) {
  const std::uint32_t k = overlay.k();
  if (k >= 16) throw std::invalid_argument("Verifier: k too large");
  // Cumulative ball sizes from the overlay's distance annotations.
  const auto dists = overlay.g_dists(v);
  std::uint32_t per_r[16] = {};  // k is a small constant (<= 15 guarded)
  for (const auto dval : dists) {
    if (dval >= 1 && dval <= k) ++per_r[dval];
  }
  std::uint32_t cum = 1;  // the sender itself
  for (std::uint32_t r = 1; r <= k; ++r) {
    cum += per_r[r];
    out[r - 1] = cum;
  }
}

std::uint8_t verifier_chain_len(const graph::Overlay& overlay,
                                const std::vector<bool>& byz_mask, NodeId v,
                                ChainModel model) {
  if (!byz_mask[v]) return 0;
  const std::uint32_t k = overlay.k();
  if (model == ChainModel::kStrict) {
    return static_cast<std::uint8_t>(std::min<std::uint32_t>(
        byz_path_ending_at(overlay.h_simple(), byz_mask, v, k + 1), 255));
  }
  // kRewired: Byzantine nodes within B_H(v, k-1) can pose as a chain by
  // claiming fake Byz-Byz H-edges that survive the crash rule.
  std::uint32_t count = 1;
  const auto nbrs = overlay.g().neighbors(v);
  const auto dists = overlay.g_dists(v);
  for (std::size_t s = 0; s < nbrs.size(); ++s) {
    if (dists[s] <= k - 1 && byz_mask[nbrs[s]]) ++count;
  }
  return static_cast<std::uint8_t>(std::min<std::uint32_t>(count, 255));
}

Verifier::Verifier(const graph::Overlay& overlay,
                   const std::vector<bool>& byz_mask,
                   VerificationConfig config, std::uint32_t threads)
    : overlay_(&overlay), byz_(&byz_mask), config_(config), k_(overlay.k()) {
  const NodeId n = overlay.num_nodes();
  if (byz_mask.size() != n) {
    throw std::invalid_argument("Verifier: mask size mismatch");
  }
  if (k_ >= 16) throw std::invalid_argument("Verifier: k too large");
  ball_counts_.assign(static_cast<std::size_t>(n) * k_, 0);
  chain_len_.assign(n, 0);
  // Each row is a pure function of the overlay (and mask) written to a
  // disjoint slice, so the batched precompute is trivially deterministic.
  const int nt = static_cast<int>(
      threads > 0 ? threads
                  : std::max(1u, std::thread::hardware_concurrency()));
  (void)nt;
#pragma omp parallel for schedule(dynamic, 64) num_threads(nt) if (nt > 1)
  for (std::int64_t v = 0; v < static_cast<std::int64_t>(n); ++v) {
    verifier_ball_row(
        overlay, static_cast<NodeId>(v),
        ball_counts_.data() + static_cast<std::size_t>(v) * k_);
    chain_len_[static_cast<std::size_t>(v)] = verifier_chain_len(
        overlay, byz_mask, static_cast<NodeId>(v), config_.chain_model);
  }
}

Verifier::Verifier(const graph::Overlay& overlay,
                   const std::vector<bool>& byz_mask,
                   VerificationConfig config,
                   std::vector<std::uint32_t> ball_counts,
                   std::vector<std::uint8_t> chain_len)
    : overlay_(&overlay),
      byz_(&byz_mask),
      config_(config),
      k_(overlay.k()),
      ball_counts_(std::move(ball_counts)),
      chain_len_(std::move(chain_len)) {
  const NodeId n = overlay.num_nodes();
  // `>=`, not `==`: the mid-run churn tier verifies over the run's id
  // space (snapshot members plus scheduled joiners), which is a superset
  // of the snapshot the overlay describes. Rows past n belong to joiners.
  // The mask and both tables must still agree on that id space, so every
  // id the mask admits has a row to read.
  if (byz_mask.size() < n ||
      ball_counts_.size() != byz_mask.size() * static_cast<std::size_t>(k_) ||
      chain_len_.size() * k_ != ball_counts_.size()) {
    throw std::invalid_argument("Verifier: precomputed state size mismatch");
  }
}

std::uint64_t Verifier::check_ball_size(NodeId sender,
                                        std::uint32_t step) const {
  const std::uint32_t r =
      std::min<std::uint32_t>(std::max<std::uint32_t>(step, 1), k_ - 1 > 0 ? k_ - 1 : 1);
  return ball_counts_[static_cast<std::size_t>(sender) * k_ + (r - 1)];
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
