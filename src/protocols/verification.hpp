// Color verification (Algorithm 2 line 15, Lemmas 15/16).
//
// When honest v receives color c from H-neighbor w at subphase step t, it
// interrogates the nodes of B_H(w, min(t, k-1)) over direct L-edges: did c
// really travel a legitimate path to w? Honest witnesses answer truthfully
// from their forwarding records; Byzantine witnesses corroborate anything.
// The provable effect (Lemma 16) is captured by this acceptance rule:
//
//   accept(w, c, t) =
//        t == 1                                  (generation claims are
//                                                 unauditable coin flips)
//     or c == legit_fresh(w, t)                  (protocol-conformant
//                                                 forward; honest senders
//                                                 always satisfy this)
//     or a Byzantine chain of length min(t, k) ending at w exists
//                                                 (the only way to fake a
//                                                  provenance trail)
//
// Observation 6 says chains of length >= k do not exist w.h.p., so
// mid-subphase fabrication beyond step k-1 is always caught — Lemma 16.
//
// Two chain models are provided (DESIGN.md §3.2/§3.5): kStrict counts
// simple Byzantine paths in H (the paper's literal object); kRewired is
// adversary-friendlier and only requires min(t,k) Byzantine nodes inside
// the checked ball (covering fake Byzantine-Byzantine H-edge claims that
// survive the crash rule). Both vanish w.h.p. under random placement.
//
// WITNESS COUNTS: the interrogated ball has radius min(t, k-1) (at least
// 1), so the Verifier keeps per node only |B_H(v, r)| for
// r = 1..graph::witness_width(k) = max(k-1, 1) — the columns the audit
// bills — plus a usable-chain length per Byzantine node.
//
// MID-RUN MEMBERSHIP (protocols/midrun.hpp, dynamics/midrun.*): the
// Verifier's state — cumulative ball counts and usable chains — is computed
// from a topology snapshot, so nodes joining or leaving DURING a run make
// it stale. MembershipPolicy names the two supported answers. Departures
// are handled identically under both (the departed node drops messages from
// its departure round; witnesses it would have contributed are simply
// absent, which can only shrink what the Verifier accepts). The policies
// differ on JOINERS and on when the state is refreshed:
//
//   kTreatAsSilent     mid-run joiners never become generating
//                      participants this run: they relay nothing, generate
//                      nothing, and finish kUndecided (they estimate from
//                      the next run, or via smoothing). The Verifier keeps
//                      its run-start state for the whole run. Conservative:
//                      the run only ever LOSES color mass relative to the
//                      churn-free run, so on an empty schedule it is
//                      bitwise identical to the static path (E24) and
//                      under churn it cannot admit tokens the static
//                      Verifier would have rejected.
//   kReadmitNextPhase  a joiner is re-admitted at the first phase boundary
//                      after its entry round: from that phase on it
//                      generates colors, relays, and can decide. At each
//                      boundary that follows a splice the Verifier is
//                      refreshed against the live topology, so admitted
//                      joiners are verifiable senders. The refresh
//                      recomputes the ball rows of only the nodes within
//                      w-1 H-hops of a splice applied since the last
//                      boundary (w = max(k-1, 1)), and the chains of the
//                      Byzantine nodes within k-1 hops; no other row can
//                      have changed (dynamics/midrun.hpp). Within a phase the
//                      state stays frozen — mid-PHASE membership change is
//                      exactly the staleness the policy tolerates, bounded
//                      by one phase.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "graph/small_world.hpp"
#include "protocols/color.hpp"
#include "sim/instrumentation.hpp"

namespace byz::proto {

enum class ChainModel : std::uint8_t { kStrict, kRewired };

/// How a run treats nodes whose membership changes mid-phase (see the file
/// comment for the full semantics; dynamics/midrun.* implements both).
enum class MembershipPolicy : std::uint8_t {
  kTreatAsSilent,      ///< joiners stay silent all run; verifier frozen
  kReadmitNextPhase,   ///< joiners admitted; splice-dirtied rows refreshed
                       ///< at boundaries
};

[[nodiscard]] const char* to_string(MembershipPolicy policy);

struct VerificationConfig {
  bool enabled = true;  ///< ablation switch (off = Algorithm 1 behavior)
  ChainModel chain_model = ChainModel::kStrict;
};

class Verifier {
 public:
  /// The Verifier of a static run: a view of the overlay's ball counts
  /// (Overlay::ball_row) plus usable-chain lengths computed here for the
  /// Byzantine nodes of `byz_mask` only (honest nodes are 0). The overlay
  /// must outlive the Verifier.
  Verifier(const graph::Overlay& overlay, const std::vector<bool>& byz_mask,
           VerificationConfig config);

  /// A view of a ready-made cumulative ball-count table with
  /// w = graph::witness_width(k) columns (`ball_counts[v*w + (r-1)]` =
  /// |B_H(v, r)|, laid out like Overlay::ball_counts) plus the per-node
  /// chain lengths, one per row. The mid-run tier passes its live table
  /// over the run's id space (snapshot members plus scheduled joiners),
  /// refreshed against the live topology at phase boundaries. The table
  /// must outlive the Verifier.
  Verifier(std::uint32_t k, std::span<const std::uint32_t> ball_counts,
           std::vector<std::uint8_t> chain_len, VerificationConfig config);

  /// This node's witness_width(k) cumulative ball counts.
  [[nodiscard]] std::span<const std::uint32_t> ball_row(
      graph::NodeId v) const {
    return ball_counts_.subspan(static_cast<std::size_t>(v) * w_, w_);
  }

  /// The acceptance decision for a token (see file comment). `legit_fresh`
  /// is the value an honest node in the sender's position would forward at
  /// this step (0 = nothing). Updates verification-traffic and injection
  /// counters.
  [[nodiscard]] bool accept(graph::NodeId sender, Color c, std::uint32_t step,
                            Color legit_fresh, bool sender_is_byz,
                            sim::Instrumentation& instr) const;

  /// Books `receivers` protocol-conformant deliveries (c == legit_fresh)
  /// from `sender` at `step` in one call. Leaves `instr` exactly as that
  /// many accept(sender, c, step, c, ...) calls would: receivers ×
  /// check_ball_size(sender, step) round trips when enabled, nothing when
  /// disabled, and never an injection count, whoever the sender is. The
  /// flood kernel books each frontier sender's honest receivers this way;
  /// the scalar reference and sim::Engine still call accept() once per
  /// message, so both oracles check it against the per-message rule.
  void book_conformant(graph::NodeId sender, std::uint32_t step,
                       std::uint64_t receivers,
                       sim::Instrumentation& instr) const;

  /// |B_H(sender, min(step, k-1))| — the number of witnesses interrogated
  /// (traffic accounting).
  [[nodiscard]] std::uint64_t check_ball_size(graph::NodeId sender,
                                              std::uint32_t step) const;

  /// Longest Byzantine chain usable from `endpoint` under the configured
  /// model (capped at k+1).
  [[nodiscard]] std::uint32_t usable_chain(graph::NodeId endpoint) const;

  [[nodiscard]] const VerificationConfig& config() const { return config_; }

 private:
  VerificationConfig config_;
  std::uint32_t k_;
  std::uint32_t w_;  ///< graph::witness_width(k_)
  // ball_counts_[v * w_ + (r-1)] = |B_H(v, r)| for r in 1..w_ (cumulative).
  std::span<const std::uint32_t> ball_counts_;
  // usable chain length per node (0 for honest nodes).
  std::vector<std::uint8_t> chain_len_;
};

/// Longest simple Byzantine-only path in H ending at `endpoint`, capped.
/// Exposed for tests and E9.
[[nodiscard]] std::uint32_t byz_path_ending_at(const graph::Graph& h_simple,
                                               const std::vector<bool>& byz_mask,
                                               graph::NodeId endpoint,
                                               std::uint32_t cap);

/// One node's usable-chain length under `model` (0 for honest nodes).
[[nodiscard]] std::uint8_t verifier_chain_len(const graph::Overlay& overlay,
                                              const std::vector<bool>& byz_mask,
                                              graph::NodeId v,
                                              ChainModel model);

/// verifier_chain_len for every node of `overlay`: the Byzantine rows are
/// computed, honest rows stay 0. The strict model's path DFS reuses one
/// on-path mask across rows; the rewired model counts the Byzantine nodes
/// of one bounded BFS to depth k-1 on h_simple per row. Neither reads G.
[[nodiscard]] std::vector<std::uint8_t> verifier_chains(
    const graph::Overlay& overlay, const std::vector<bool>& byz_mask,
    ChainModel model);

}  // namespace byz::proto
