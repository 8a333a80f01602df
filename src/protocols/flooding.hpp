// The per-subphase flood kernel (Algorithm 1/2 lines 10-17 inner loop):
// one word-packed, single-threaded implementation, plus the scalar
// reference it is checked against bit for bit. One subphase of
// phase i floods colors along H for exactly i steps under the forward-once
// rule: a node re-broadcasts only when its running maximum improves, so
// each send carries the sender's fresh max. Byzantine senders are driven
// by injections; honest receivers filter every received color through the
// Verifier.
//
// Round/phase lifecycle: a RUN is a sequence of phases i = 1, 2, ...; phase
// i runs subphases_in_phase(i) independent subphases; one subphase is one
// call into this kernel and floods for exactly i steps (= i protocol
// ROUNDS, the unit the paper's O(log³ n) bound counts). Within a subphase,
// step 1 broadcasts generated colors and steps 2..i relay improvements.
// Subphases share no state except the caller's fired flags; phases share
// no state except which nodes are still active.
//
// Per-node bookkeeping matches the pseudocode: k_t is the maximum ACCEPTED
// color received in step t; the subphase "fires" for v iff
//   k_i > k_t for all t < i   and   k_i > continue_threshold(i, d).
//
// Mid-protocol churn (FloodParams::live): when live hooks are attached the
// kernel resolves every neighbor set against the LIVE topology instead of
// `overlay`, and calls live->begin_round() before each step's sends so the
// owner can splice scheduled joins/leaves in first. Departed nodes drop
// messages from their departure round (sends and receives); joiners
// receive and relay from their entry round ("flood from entry") but never
// generate mid-subphase — generation is granted at phase boundaries by the
// MembershipPolicy (see verification.hpp / fastpath.hpp). The kernel reads
// presence once per round, after begin_round, as the hooks' packed
// alive_set(), and tests senders and receivers from its words. With live ==
// nullptr the kernel is the static path, unchanged.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/small_world.hpp"
#include "protocols/color.hpp"
#include "protocols/midrun.hpp"
#include "protocols/verification.hpp"
#include "sim/instrumentation.hpp"
#include "util/bitset.hpp"

namespace byz::obs {
class RunDigester;
}  // namespace byz::obs

namespace byz::proto {

/// One Byzantine token emission: node `from` sends `value` to its
/// H-neighbors at subphase step `step` (1-based). Acceptance is decided by
/// the Verifier at each honest receiver.
struct Injection {
  graph::NodeId from;
  std::uint32_t step;
  Color value;
};

/// Reusable per-subphase state (avoids reallocation across the hundreds of
/// subphases of a run).
class FloodWorkspace {
 public:
  void ensure(graph::NodeId n);

  std::vector<Color> known;          ///< running max (own color at start)
  std::vector<std::uint32_t> fresh;  ///< step at which known last improved
  std::vector<Color> best_before;    ///< max over k_t, t < current
  std::vector<Color> last_step;      ///< k_i of the final step
  std::vector<Color> recv;           ///< per-step accepted receive max
  /// Canonical (sorted) wavefront handed to MidRunHooks::begin_round; only
  /// populated when live hooks are attached.
  std::vector<graph::NodeId> live_frontier;
  /// Word-packed frontier / next-frontier / touched sets; iteration is
  /// ascending node id by construction.
  util::Bitset frontier_bits;
  util::Bitset next_frontier_bits;
  util::Bitset touched_bits;
  /// The kernel's per-delivery receiver tests, packed by its step-1 sweep
  /// from the subphase inputs: nodes that can receive (not crashed) and
  /// Byzantine nodes (unaudited receivers).
  util::Bitset can_receive_bits;
  util::Bitset byz_bits;
  /// Under live hooks, the round's receivers: can_receive_bits AND the
  /// hooks' alive_set(), rebuilt after each begin_round.
  util::Bitset live_receive_bits;
};

struct FloodParams {
  std::uint32_t steps = 1;      ///< = phase index i
  bool byz_forward = true;      ///< Byzantine nodes relay the flood
  /// Mid-protocol churn hooks (see file comment). Null = static path.
  MidRunHooks* live = nullptr;
  /// Clock of this subphase's FIRST step; the kernel advances step/round
  /// per flood step and hands the result to live->begin_round(). Ignored
  /// when live is null.
  RoundClock clock;
  /// Divergence-forensics digester (obs/digest.hpp). When attached the
  /// kernel folds each round's conformant senders and accepted receivers
  /// and closes one round digest per flood step. Null = no digesting
  /// (the default; pure read-side either way).
  obs::RunDigester* digest = nullptr;
};

/// Runs one subphase. `gen_color[v]` is v's generated color (0 = does not
/// generate: decided or crashed honest nodes, and Byzantine nodes whose
/// strategy emits via `injections` instead). `crashed[v]` nodes neither
/// send nor receive. Outputs land in the workspace (`best_before`,
/// `last_step` drive the caller's termination predicate).
void run_flood_subphase(const graph::Overlay& overlay,
                        const std::vector<bool>& byz_mask,
                        const std::vector<bool>& crashed,
                        const Verifier& verifier, const FloodParams& params,
                        std::span<const Color> gen_color,
                        std::span<const Injection> injections,
                        FloodWorkspace& ws, sim::Instrumentation& instr);

/// The scalar reference oracle: the original per-node implementation of
/// the same subphase, kept verbatim so the bitwise-equivalence suite and
/// E30 have an independent specification to compare run_flood_subphase
/// against. No run configuration reaches it.
void run_flood_subphase_reference(
    const graph::Overlay& overlay, const std::vector<bool>& byz_mask,
    const std::vector<bool>& crashed, const Verifier& verifier,
    const FloodParams& params, std::span<const Color> gen_color,
    std::span<const Injection> injections, FloodWorkspace& ws,
    sim::Instrumentation& instr);

}  // namespace byz::proto
