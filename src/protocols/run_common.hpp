// Backend-neutral run machinery shared by every proto::Estimator backend
// (Algorithm 1/2 in fastpath.*, Byzantine-Resilient Counting in brc/*) and
// by the message-level engine: the knobs every run accepts
// (RunControls), the phase-state digest fold both execution tiers emit at
// the same semantic points, and the mid-run membership sweeps (joiner
// admission at phase boundaries, departed reconciliation) that are policy,
// not algorithm. Hoisted out of fastpath.* so a second backend rides the
// same churn/observability/forensics plumbing without depending on the
// Algorithm-2 runner.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/small_world.hpp"
#include "protocols/estimate.hpp"
#include "protocols/flooding.hpp"
#include "protocols/midrun.hpp"
#include "protocols/verification.hpp"

namespace byz::obs {
class RunDigester;
}  // namespace byz::obs

namespace byz::proto {

/// Extension points for a counting run. midrun is the one knob that is
/// not decision-exact: it is the mid-run-churn tier, whose divergence is
/// bounded and accounted elsewhere (dynamics/midrun.hpp).
struct RunControls {
  /// Mid-protocol churn hooks (protocols/midrun.hpp): the run sizes its
  /// id space by node_bound(), the flood kernel resolves neighbors live,
  /// and phase boundaries apply the MembershipPolicy (joiner admission +
  /// verifier refresh). byz_mask must then cover node_bound() ids.
  /// Null = static run.
  MidRunHooks* midrun = nullptr;
  /// Divergence-forensics digester (obs/digest.hpp): when attached the run
  /// folds a hierarchical digest trail (round -> subphase -> phase -> run)
  /// at the same semantic points the message-level engine does, so two
  /// trails localize the first divergent round. Pure read-side; null = no
  /// digesting (the default).
  obs::RunDigester* digester = nullptr;
};

/// Folds the phase-begin protocol state into the digester's open phase
/// accumulator: per-node status/estimate, then the phase verifier's ball
/// rows and usable-chain lengths over ids [0, id_bound). Both execution
/// tiers (and every backend) call this at the same semantic point — right
/// after the phase's verifier is resolved — so per-phase digests are
/// comparable across tiers of the same backend.
void digest_phase_state(obs::RunDigester& digester, const Verifier& verifier,
                        std::span<const NodeStatus> status,
                        std::span<const std::uint32_t> estimate,
                        graph::NodeId id_bound);

/// Phase-boundary joiner admission under mid-run churn: asks the hooks'
/// MembershipPolicy for this phase's admissions, marks them as
/// participating, and activates the honest ones that can still decide.
/// Returns the Verifier the phase's floods must use (begin_phase owns it —
/// refreshed against the live topology under kReadmitNextPhase). `admitted`
/// is cleared and filled with the admitted run ids (callers fold it into
/// flight events).
[[nodiscard]] const Verifier* admit_at_phase_boundary(
    MidRunHooks& midrun, std::uint32_t phase,
    const std::vector<bool>& byz_mask, const std::vector<bool>& crashed,
    std::span<const NodeStatus> status, std::vector<std::uint8_t>& participates,
    std::vector<bool>& active, std::uint64_t& active_count,
    std::vector<graph::NodeId>& admitted);

/// End-of-phase departed sweep under mid-run churn: nodes that left the
/// overlay during the phase are no longer members — they take no estimate
/// and leave the active set before the backend's decide sweep reads its
/// per-phase state. Folds one digest term per newly departed node when a
/// digester is attached (the 0xDE9 tag both tiers use).
void sweep_departed(MidRunHooks& midrun, std::vector<bool>& active,
                    std::uint64_t& active_count, RunResult& result,
                    obs::RunDigester* digester);

/// Final run-level digest fold: one status<<32|estimate term per node id,
/// then close_run(). Every backend folds the identical shape so run-level
/// digests are comparable wherever outcomes must be.
void fold_run_outcome(obs::RunDigester& digester, const RunResult& result,
                      graph::NodeId id_bound);

}  // namespace byz::proto
