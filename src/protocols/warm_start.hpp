// Warm-started Algorithm 2 — protocol-level continuity across epochs.
//
// A long-running deployment re-estimates on every churn snapshot, but
// consecutive snapshots differ by a handful of splices, so most per-node
// protocol state is reusable. The warm tier exploits exactly the reuse
// that is DECISION-EXACT — the warm run's status/estimate vectors are
// bitwise identical to a cold run on the same snapshot (the epoch driver's
// verify_warm mode asserts it on every epoch). Verifier state needs no
// cache: the run's Verifier views the snapshot's own ball counts
// (graph::Overlay::ball_row), which the incremental engine already keeps
// for clean balls.
//
//   * Subphases are evaluated lazily: each phase stops at the first
//     subphase after which every active node has fired. Fired flags are
//     monotone within a phase and the only cross-subphase state, so the
//     skipped subphases are pure flood cost with no decision content. In
//     the phases below the termination point this collapses i*alpha_i
//     subphases to the first couple, which is where a cold run burns most
//     of its messages.
//   * The refined readout (refine.hpp's model-aware calibration) is a pure
//     function of the decided phase, so it is re-run only for nodes whose
//     estimate actually moved.
//
// Whole-PHASE skipping — seeding the loop above phase 1 because last
// epoch's minimum estimate was higher — is deliberately NOT part of the
// (exact) warm tier: colors are drawn fresh every epoch, so a node with m
// live H-neighbors fails phase i's threshold in every subphase with
// probability ~(1/2)^(m*alpha), and under crash-heavy adversaries such
// low-m nodes decide at phase 1-2 with constant probability. "No one
// decides below last epoch's minimum" is a positive-probability bet, not
// an invariant, and the exact tier's equivalence contract does not take
// bets.
//
// The ε-WARM tier (WarmConfig::eps_phase_skip) takes exactly that bet,
// priced against the paper's own error model. Theorem 1 only promises the
// estimate band for all but ε·n honest nodes — an outlier budget the exact
// runs never spend. ε-warm spends it: the entry phase is chosen from the
// QUANTILE of the seeded estimate distribution — the deepest phase whose
// predicted at-risk population (nodes seeded below it, plus nodes with no
// seed) pre-spends at most half of floor(eps_budget·honest), minus
// eps_margin phases of safety — and the phases below it (where a cold run
// burns most of its subphases) are dropped entirely.
// The accounting invariant, asserted by the epoch driver's verify mode and
// the warm-start tests:
//
//     realized divergent decisions (vs the cold run on the same snapshot)
//         <= floor(eps_budget * honest members)          -- per epoch
//
// "Divergent" compares status AND estimate per node. The run itself
// reports the a-priori side (entry phase, skipped subphases, budget in
// nodes); the realized count needs the cold shadow, so it lives in
// dynamics::EpochStats (eps_divergent). Divergence is one-sided in the
// phase order — a node clamped at entry can only report >= its cold
// estimate, and extra still-active generators can only push later phases'
// maxima UP — so the failure mode is over-estimation of log n, the
// direction the refinement stage already tolerates.
//
// The previous-epoch estimates still seed the run: they are carried per
// stable id, define the expected decision window (reported for
// observability and E21), and anchor the drift fallback — when membership
// drift since the seeding run exceeds WarmConfig::max_drift, the cached
// state is presumed stale and a full cold run re-baselines it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "adversary/strategies.hpp"
#include "protocols/fastpath.hpp"

namespace byz::proto {

struct WarmConfig {
  /// Fall back to a cold run (no state reuse, eager subphases) when the
  /// membership drift since the seeding run exceeds this fraction.
  double max_drift = 0.05;
  /// ε-warm tier: skip the early phases of warm runs, entering at the
  /// budget-bounded quantile of the seeded estimate distribution (see
  /// file comment). Only engages on a warm run; cold fallbacks and
  /// first-ever runs are never skipped.
  bool eps_phase_skip = false;
  /// The ε of the accounting invariant: divergent decisions per run must
  /// stay within floor(eps_budget * honest members). The entry-phase rule
  /// pre-spends at most half of it; callers verifying the invariant
  /// (epoch driver, E25) shadow-run cold and throw past the full budget.
  double eps_budget = 0.10;
  /// Safety margin subtracted from the quantile entry phase; one phase
  /// absorbs the typical epoch-to-epoch wobble of fresh colors (the
  /// decided-phase distribution is broad — see E05/E25 — so every extra
  /// margin phase sharply shrinks the skippable prefix).
  std::uint32_t eps_margin = 1;
  /// Flood-kernel thread count (0 = hardware threads) forwarded to the
  /// underlying runs (warm AND cold fallback). Bitwise-neutral at every
  /// thread count.
  std::uint32_t flood_threads = 1;
};

/// Per-node protocol state carried across epochs, indexed by STABLE id so
/// it survives the dense-id compaction shifts churn causes. Owned by the
/// caller (the epoch driver keeps one per deployment).
struct WarmState {
  bool has_run = false;
  std::vector<std::uint32_t> estimate;  ///< decided phase (0 = none)
  std::vector<double> refined;          ///< refined_log_estimate cache
};

struct WarmRun {
  RunResult run;
  bool warm_used = false;         ///< false = cold fallback taken
  std::uint64_t estimates_seeded = 0;
  std::uint32_t seed_min = 0;     ///< seeded-estimate window (0 = none)
  std::uint32_t seed_max = 0;
  std::uint64_t refine_reused = 0;
  std::uint64_t refine_recomputed = 0;
  // --- ε-warm tier (meaningful when WarmConfig::eps_phase_skip) ---
  bool eps_used = false;            ///< the run actually entered above 1
  std::uint32_t eps_entry_phase = 1;
  std::uint64_t eps_budget_nodes = 0;       ///< floor(eps_budget * honest)
  std::uint64_t eps_skipped_subphases = 0;  ///< schedule cost of the skip
};

/// Runs the counting protocol on `overlay`, warm-started from `state` when
/// safe (see file comment). `dense_to_stable` maps the snapshot's dense ids
/// to stable ids; `drift` is the accumulated membership drift since the
/// run that produced `state`. Updates `state` to this run's outcome on both
/// the warm and the cold path. `digester` attaches divergence forensics
/// (obs/digest.hpp): the run's digest trail plus a flight-recorder note for
/// the ε-entry decision; pure read-side, the run outcome is bitwise
/// unaffected.
[[nodiscard]] WarmRun run_counting_warm(
    const graph::Overlay& overlay, const std::vector<bool>& byz_mask,
    adv::Strategy& strategy, const ProtocolConfig& cfg,
    std::uint64_t color_seed, std::span<const graph::NodeId> dense_to_stable,
    double drift, const WarmConfig& warm_cfg, WarmState& state,
    obs::RunDigester* digester = nullptr);

// --- Shared warm-state plumbing ---------------------------------------
//
// The helpers below are the reusable pieces of run_counting_warm, split
// out so the mid-run churn tier (dynamics/midrun.*) can warm-start its
// runs from the same stable-indexed state: the epoch driver picks the ε
// entry from it and folds the run's estimates back after the flush.

/// Folds a finished run's decisions into the estimate/refined caches
/// (kDecided nodes keep their phase, everyone else seeds 0) and marks the
/// state runnable. The refined readout is a pure function of the decided
/// phase, so it is recomputed only where the phase moved; the returned
/// counts feed the reuse accounting.
struct RefineFold {
  std::uint64_t reused = 0;
  std::uint64_t recomputed = 0;
};
RefineFold fold_run_estimates(WarmState& state, const RunResult& run,
                              std::span<const graph::NodeId> dense_to_stable,
                              std::uint32_t d);

/// The ε-warm entry rule (see file comment): budget = floor(eps_budget ·
/// honest), and — when `allow_skip` (a warm, non-cold run) — the entry
/// phase is the deepest one whose predicted at-risk population (honest
/// nodes seeded below it, plus nodes with no seed) pre-spends at most half
/// the budget, minus eps_margin phases of safety.
struct EpsEntryPlan {
  bool eps_used = false;  ///< entry > 1 was chosen
  std::uint32_t entry_phase = 1;
  std::uint64_t budget_nodes = 0;  ///< floor(eps_budget * honest)
  std::uint64_t skipped_subphases = 0;
};
[[nodiscard]] EpsEntryPlan choose_eps_entry(
    const WarmState& state, std::span<const graph::NodeId> dense_to_stable,
    const std::vector<bool>& byz_mask, std::uint32_t max_phase,
    std::uint32_t d, const ScheduleConfig& schedule,
    const WarmConfig& warm_cfg, bool allow_skip);

}  // namespace byz::proto
