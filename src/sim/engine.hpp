// Message-level reference implementation of the counting protocols.
//
// Unlike the array fast path (protocols/fastpath.*), this engine represents
// every token as a message object moving between per-node inboxes, and each
// honest node runs its own local state machine over its inbox — the way one
// would implement the protocol on a real network. Byzantine sends are
// composed from the Strategy exactly as in the fast path, and the Verifier,
// ClaimSet/crash rule, coin table, and schedule are shared, so the two
// tiers must produce IDENTICAL per-node decisions on the same seed; the
// equivalence suite asserts that, plus equality of the message accounting.
//
// Round/delivery semantics (one flood step of phase i):
//   1. SENDS — every node whose running maximum improved in the previous
//      step (at step 1: every color generator) broadcasts that maximum to
//      its H-neighbors; each token lands in the receiver's inbox. This is
//      the forward-once rule: a value is relayed at most once per node,
//      the step after it was learned.
//   2. DELIVERY — each node drains its inbox. Honest receivers filter
//      every token through the Verifier (sender state is still pre-close,
//      so the legit-fresh check is exact); Byzantine receivers absorb
//      without verification. Crashed and non-present nodes drop their
//      inbox unread.
//   3. CLOSE — receive maxima fold into the k_t bookkeeping
//      (best_before/last_step) and, on improvement, arm the node to send
//      next step. Messages sent and received within one step never
//      influence that same step's sends — the engine is synchronous.
//
// MID-RUN CHURN (proto::MidRunHooks, the same interface the fast path
// consumes): when hooks are attached the engine runs the mid-run
// membership state machine instead of a frozen snapshot —
//   * the id space is node_bound(): snapshot members occupy [0, n),
//     scheduled joiners [n, node_bound()), inert until their entry round;
//   * before each step's sends the engine computes the canonical wavefront
//     and calls begin_round(), which applies that round's join/leave
//     events; sends/receives are then gated on alive(), so departed nodes
//     fall silent from their departure round and joiners hear from entry;
//   * at each phase boundary begin_phase() applies the MembershipPolicy:
//     it hands back the Verifier the phase must use and the joiners that
//     become generating participants (kReadmitNextPhase) or neither
//     (kTreatAsSilent);
//   * after each phase, nodes the hooks report departed() leave the
//     active set with status kDeparted before the decide sweep runs.
// Every transition mirrors protocols/fastpath.cpp step for step, so
// engine-vs-fastpath equivalence holds BITWISE at nonzero mid-run churn —
// the E26 oracle — not just on the static path.
//
// Intended for n up to a few thousand (tests, E7 message accounting,
// the E26 mid-run oracle). An Engine instance drives one run.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "adversary/strategies.hpp"
#include "graph/small_world.hpp"
#include "protocols/estimate.hpp"
#include "protocols/fastpath.hpp"
#include "protocols/midrun.hpp"
#include "protocols/verification.hpp"

namespace byz::sim {

class Engine {
 public:
  /// `overlay` is the (run-start) snapshot; under mid-run churn `midrun`
  /// supplies the live topology and `byz_mask` must cover the full
  /// node_bound() id space (snapshot members + scheduled joiners), exactly
  /// as for proto::run_counting_with. Null hooks = the static reference
  /// path, unchanged. `digester`
  /// attaches divergence-forensics digesting (obs/digest.hpp) at the same
  /// semantic points as RunControls::digester on the fast path, so the two
  /// tiers' digest trails are comparable entry for entry.
  Engine(const graph::Overlay& overlay, const std::vector<bool>& byz_mask,
         adv::Strategy& strategy, const proto::ProtocolConfig& cfg,
         std::uint64_t color_seed, proto::MidRunHooks* midrun = nullptr,
         obs::RunDigester* digester = nullptr);

  /// Executes setup + phases until all honest nodes decided/crashed or the
  /// phase cap is reached.
  [[nodiscard]] proto::RunResult run();

  /// Per-round message volume trace (index = flooding round), for E7.
  [[nodiscard]] const std::vector<std::uint64_t>& round_messages() const {
    return round_messages_;
  }

 private:
  struct Token {
    graph::NodeId from;
    proto::Color color;
  };

  /// Local state of one honest node's protocol instance.
  struct NodeMachine {
    bool crashed = false;
    // Per-subphase registers.
    proto::Color own = 0;
    proto::Color known = 0;
    std::uint32_t fresh_step = 0;
    proto::Color best_before = 0;
    proto::Color last_step = 0;
    bool fired_this_phase = false;

    void begin_subphase(proto::Color own_color) noexcept {
      own = own_color;
      known = own_color;
      fresh_step = 0;
      best_before = 0;
      last_step = 0;
    }
  };

  void run_subphase(std::uint32_t phase, std::uint32_t j, std::uint32_t s);
  [[nodiscard]] bool present(graph::NodeId v) const {
    return midrun_ == nullptr || midrun_->alive(v);
  }

  const graph::Overlay& overlay_;
  const std::vector<bool>& byz_;
  adv::Strategy& strategy_;
  proto::ProtocolConfig cfg_;
  std::uint64_t color_seed_;
  proto::MidRunHooks* midrun_;
  obs::RunDigester* digester_;
  graph::NodeId nb_;  ///< run id space: overlay n, or midrun node_bound()
  World world_;
  /// Static path: built once in the constructor. Mid-run path: handed out
  /// by begin_phase() each phase (refreshed under kReadmitNextPhase).
  std::optional<proto::Verifier> owned_verifier_;
  const proto::Verifier* verifier_ = nullptr;

  std::vector<NodeMachine> nodes_;
  std::vector<std::vector<Token>> inbox_;
  /// Honest, uncrashed, undecided, not departed, admitted — the nodes that
  /// still generate colors; identical bookkeeping to the fast path's
  /// `active` vector.
  std::vector<std::uint8_t> active_;
  /// Mid-run only: has this id been admitted as a generating participant?
  /// Snapshot members start at 1; joiners flip at a phase boundary.
  std::vector<std::uint8_t> participates_;
  std::uint64_t active_count_ = 0;
  std::uint64_t global_round_ = 0;  ///< drives the churn schedule clock
  std::vector<graph::NodeId> frontier_scratch_;
  proto::RunResult result_;
  std::vector<std::uint64_t> round_messages_;
};

}  // namespace byz::sim
