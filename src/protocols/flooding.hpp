// The flood kernel (Algorithm 1/2 lines 10-17 inner loop): one
// word-packed, single-threaded implementation, plus the scalar reference
// it is checked against bit for bit. One subphase of phase i floods colors
// along H for exactly i steps under the forward-once rule: a node
// re-broadcasts only when its running maximum improves, so each send
// carries the sender's fresh max. Byzantine senders are driven by
// injections; honest receivers filter every received color through the
// Verifier.
//
// Round/phase lifecycle: a RUN is a sequence of phases i = 1, 2, ...; phase
// i runs subphases_in_phase(i) independent subphases, each flooding for
// exactly i steps (= i protocol ROUNDS, the unit the paper's O(log³ n)
// bound counts). Within a subphase, step 1 broadcasts generated colors and
// steps 2..i relay improvements. Subphases share no state except the
// caller's fired flags; phases share no state except which nodes are still
// active.
//
// Lanes: since a phase's subphases are independent floods over the same
// H, the same crash set and the same Verifier, one kernel call carries up
// to kMaxFloodLanes of them side by side (run_flood_lanes). Each node
// holds one row of lane values per array, and each round reads every
// sender's adjacency once for all the lanes it sends in, instead of once
// per subphase. Every lane's outputs, the summed Instrumentation and the
// per-lane round digests equal those of one run_flood_subphase call per
// lane, made in lane order. Algorithm 2 runs fuse a phase's subphases,
// and static BRC runs (protocols/brc/) a batch's repetitions. Runs whose
// hooks churn keep one lane: membership changes between the rounds of
// successive subphases, so their floods are not independent.
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
// alive_set(), and tests senders and receivers from its words. Hooks that
// do not churn (MidRunHooks::churns(), an empty schedule) get no
// begin_round and may carry several lanes. With live == nullptr the kernel
// is the static path, unchanged.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/small_world.hpp"
#include "protocols/color.hpp"
#include "protocols/midrun.hpp"
#include "protocols/verification.hpp"
#include "sim/instrumentation.hpp"
#include "util/aligned.hpp"
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

/// The most subphases one kernel call floods: a node's row of 32-bit lane
/// values then fills one 64-byte cache line.
inline constexpr std::uint32_t kMaxFloodLanes = 16;

/// A set of lanes: bit l stands for lane l.
using LaneMask = std::uint16_t;
static_assert(sizeof(LaneMask) * 8 >= kMaxFloodLanes);

/// Reusable flood state (avoids reallocation across the phases of a run).
/// The per-node arrays hold one row per node of stride() values, lane l of
/// node v at index at(v, l); at one lane the stride is 1, so `known[v]` is
/// node v's value.
class FloodWorkspace {
 public:
  /// Zeroes every row for `lanes` lanes (1..kMaxFloodLanes) over n nodes.
  /// With `step_maxima` false the best_before/last_step rows stay empty
  /// and the kernel keeps only the running max: a caller that reads
  /// nothing else (BRC) saves half the rows.
  void ensure(graph::NodeId n, std::uint32_t lanes = 1,
              bool step_maxima = true);

  [[nodiscard]] std::uint32_t lanes() const { return lanes_; }
  [[nodiscard]] bool step_maxima() const { return step_maxima_; }
  /// Row width: the lane count rounded up to 1, 4, 8 or 16, so rows are
  /// whole vector registers. Lanes past lanes() stay 0.
  [[nodiscard]] std::uint32_t stride() const { return stride_; }
  [[nodiscard]] std::size_t at(graph::NodeId v, std::uint32_t lane) const {
    return static_cast<std::size_t>(v) * stride_ + lane;
  }

  /// Running max; the caller of run_flood_lanes writes each lane's
  /// generated color here first. The row arrays start on a cache line, so
  /// a 16-lane row is exactly one line.
  util::aligned_vector<Color> known;
  /// Step at which known last improved. One-lane calls and the reference
  /// only: a fused call reads the same fact off the frontier lanes.
  std::vector<std::uint32_t> fresh;
  util::aligned_vector<Color> best_before;  ///< max over k_t, t < current
  util::aligned_vector<Color> last_step;    ///< k_i of the final step
  util::aligned_vector<Color> recv;         ///< per-step accepted receive max
  /// Canonical (sorted) wavefront handed to MidRunHooks::begin_round; only
  /// populated when live hooks are attached.
  std::vector<graph::NodeId> live_frontier;
  /// Word-packed frontier / next-frontier / touched sets over the union of
  /// the lanes; iteration is ascending node id by construction.
  util::Bitset frontier_bits;
  util::Bitset next_frontier_bits;
  util::Bitset touched_bits;
  /// The lanes each frontier node sends in, valid where its frontier bit
  /// is set (fused calls only).
  std::vector<LaneMask> frontier_lanes;
  std::vector<LaneMask> next_frontier_lanes;
  /// A fused call with a digester attached keeps, per lane and step, the
  /// XOR of the round's digest terms and its token count (index
  /// lane * steps + step - 1); replay_lane_rounds closes them.
  std::vector<std::uint64_t> round_folds;
  std::vector<std::uint64_t> round_tokens;
  /// The kernel's per-delivery receiver tests, packed by its step-1 sweep
  /// from the subphase inputs: nodes that can receive (not crashed) and
  /// Byzantine nodes (unaudited receivers).
  util::Bitset can_receive_bits;
  util::Bitset byz_bits;
  /// Under live hooks, the round's receivers: can_receive_bits AND the
  /// hooks' alive_set(), rebuilt after each begin_round.
  util::Bitset live_receive_bits;

 private:
  std::uint32_t lanes_ = 1;
  std::uint32_t stride_ = 1;
  bool step_maxima_ = true;
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
  /// kernel folds each round's conformant senders and accepted receivers.
  /// A one-lane call closes one round digest per flood step as the step
  /// ends (live hooks fold membership terms into the same open round); a
  /// fused call leaves the digester alone and keeps every lane's rounds in
  /// the workspace for replay_lane_rounds. Null = no digesting (the
  /// default; pure read-side either way).
  obs::RunDigester* digest = nullptr;
};

/// Runs ws.lanes() subphases of one phase side by side (see the file
/// comment). Before the call, ws.ensure(n, lanes) and the generated colors
/// written into ws.known: lane l of node v is v's color in that subphase
/// (0 = does not generate, as in run_flood_subphase). Lane l's injections
/// are injections[lane_begin[l], lane_begin[l + 1]) (lane_begin has
/// lanes + 1 entries, the last = injections.size()). Outputs land in the
/// workspace's rows; `instr` receives the sum over the lanes, and
/// flood_rounds grows by steps × lanes. Hooks that churn need one lane
/// (throws std::invalid_argument otherwise).
void run_flood_lanes(const graph::Overlay& overlay,
                     const std::vector<bool>& byz_mask,
                     const std::vector<bool>& crashed,
                     const Verifier& verifier, const FloodParams& params,
                     std::span<const Injection> injections,
                     std::span<const std::uint32_t> lane_begin,
                     FloodWorkspace& ws, sim::Instrumentation& instr);

/// Closes lane `lane`'s rounds of the last fused call into `digester`'s
/// open subphase, one fold_round + close_round per step, as a one-lane
/// call closes them inline. The caller replays the lanes in subphase
/// order, each after its begin_subphase.
void replay_lane_rounds(const FloodWorkspace& ws, std::uint32_t lane,
                        obs::RunDigester& digester);

/// Runs one subphase: the one-lane entry. `gen_color[v]` is v's generated
/// color (0 = does not generate: decided or crashed honest nodes, and
/// Byzantine nodes whose strategy emits via `injections` instead).
/// `crashed[v]` nodes neither send nor receive. Outputs land in the
/// workspace (`best_before`, `last_step` drive the caller's termination
/// predicate).
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
