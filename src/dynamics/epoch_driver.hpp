// Epoch driver: replays a churn trace against a MutableOverlay and re-runs
// the counting protocol every epoch — the continuous-estimation loop a
// long-running deployment would operate, versus the repo's one-shot
// experiments. Per epoch it records fresh accuracy against the true n(t),
// the STALENESS of the previous epoch's estimates (how wrong a node that
// skips re-estimation becomes as the network drifts), and optionally runs
// the message-level sim::Engine on the same epoch to assert the two
// protocol tiers still agree decision-for-decision and digest for digest
// under churn.
//
// Every estimating epoch runs one body: a live run (dynamics/midrun.*) on
// a fresh MutableOverlay::snapshot() under a ChurnSchedule. Its setup
// counts the snapshot's G-degrees and BFSes its liars' balls, so only the
// engine oracle (run_engine) builds G. The churn model decides only when
// the events strike (docs/ARCHITECTURE.md has the full matrix):
//
//   * snapshot churn (default): events apply BETWEEN runs, and the run
//     takes an empty schedule. That run is bitwise the static Algorithm 2
//     run on the same snapshot (the E24 anchor) and floods a phase's
//     subphases in fused lanes, as the static run does.
//   * mid-run churn (ChurnRunConfig::mid_run): the epoch's events are
//     placed on individual flood rounds — uniformly, or adversarially
//     timed/targeted (adversary/midrun_schedule.hpp) — and strike DURING
//     the run, under a MembershipPolicy that decides how the in-flight run
//     reacts.
//
// ChurnRunConfig::drift_threshold adds drift-adaptive cadence to either
// model: drift-quiet epochs are skipped and apply their events between
// runs. run_engine is the per-epoch engine oracle in both models: the
// message-level engine replays the identical schedule
// (run_counting_midrun_engine) and must agree bitwise (E26), outcome and
// digest trail (obs::OracleAudit). Only the oracle attaches digesters.
//
// Everything is derived from cfg.seed with SplitMix64 streams and replayed
// sequentially, so a churn run is bitwise reproducible regardless of how
// many scheduler workers fan out the surrounding trials.
#pragma once

#include <cstdint>
#include <vector>

#include "adversary/churn.hpp"
#include "adversary/strategies.hpp"
#include "dynamics/churn_trace.hpp"
#include "dynamics/midrun.hpp"
#include "dynamics/mutable_overlay.hpp"
#include "protocols/estimate.hpp"
#include "protocols/fastpath.hpp"

namespace byz::dynamics {

struct ChurnRunConfig {
  ChurnTraceParams trace;
  std::uint32_t d = 8;
  std::uint32_t k = 0;  ///< 0 = paper k
  /// Initial Byzantine placement: floor(n0^(1-delta)) uniform nodes.
  double delta = 0.7;
  adv::StrategyKind strategy = adv::StrategyKind::kFakeColor;
  adv::ChurnAdversary churn_adversary = adv::ChurnAdversary::kNone;
  proto::ProtocolConfig protocol;
  std::uint64_t seed = 1;
  /// Engine oracle: each estimating epoch the message-level sim::Engine
  /// replays the epoch's schedule from a copy of the pre-run state, both
  /// tiers record digest trails, and EpochStats::engine_match records
  /// whether the outcomes and the trails agreed bitwise.
  bool run_engine = false;
  /// Drift-adaptive cadence: re-estimate only when the membership drift
  /// accumulated since the last estimation (the fraction of the
  /// last-estimated membership that churned) reaches this bound. Epoch 0
  /// always estimates; 0 = re-estimate every epoch.
  double drift_threshold = 0.0;
  /// Mid-protocol churn (dynamics/midrun.*): apply each epoch's
  /// joins/leaves DURING its estimation run — spread over the run's
  /// expected flood rounds — instead of between runs. Adaptive cadence
  /// COMPOSES with it (see the file comment): drift-quiet epochs are
  /// skipped and their events apply between-runs style. The policy and
  /// schedule strategy below matter only when enabled.
  struct MidRunMode {
    bool enabled = false;
    proto::MembershipPolicy policy =
        proto::MembershipPolicy::kReadmitNextPhase;
    /// Event TIMING and leave-victim policy
    /// (adversary/midrun_schedule.hpp): kUniform reproduces the PR-4
    /// uniform spread bitwise; the adversarial strategies spend the same
    /// per-epoch budget at the worst rounds (E27).
    adv::MidRunScheduleStrategy schedule =
        adv::MidRunScheduleStrategy::kUniform;
  };
  MidRunMode mid_run;
  /// Directory the engine oracle writes a byzobs/forensics/v1 report to
  /// when an epoch diverges ("" = the report is rendered, not written,
  /// and forensics_path stays empty).
  std::string audit_dir;
  /// Cross-ALGORITHM shadow oracle (analysis/backend_compare.hpp): after
  /// each estimating epoch, run this registered backend AND the cold
  /// algo2 reference on the epoch's post-churn snapshot (identical
  /// overlay/byz/strategy, a dedicated seed stream) and record whether
  /// each landed in its own declared bound and the pair agreed within the
  /// combined band (EpochStats::shadow_*). Unlike the engine oracle —
  /// same algorithm, different execution tier — this catches bugs that
  /// shift BOTH tiers identically. Pure read-side: it perturbs no rng
  /// stream and no existing counter. "" = off; an unknown
  /// name throws up front with the registered-name list.
  std::string shadow_backend;
};

struct EpochStats {
  graph::NodeId n_true = 0;       ///< membership after this epoch's churn
  graph::NodeId byz_alive = 0;
  std::uint32_t joins = 0;        ///< honest + sybil arrivals applied
  std::uint32_t leaves = 0;
  proto::Accuracy fresh;          ///< this epoch's run, judged against n(t)
  std::uint64_t stale_nodes = 0;  ///< honest survivors carrying a previous
                                  ///< epoch's estimate
  std::uint64_t stale_in_band = 0;
  double stale_frac_in_band = 0.0;
  std::uint64_t messages = 0;     ///< protocol messages this epoch
  bool engine_match = true;       ///< engine == fastpath, outcome and
                                  ///< digest trail (when run_engine)
  // --- adaptive cadence ---
  bool estimated = true;          ///< false = adaptive scheduler skipped
  double drift = 0.0;             ///< accumulated drift entering the epoch
  /// Mid-run mode: Verifier rows the live kReadmitNextPhase refreshes
  /// recomputed, i.e. those within w-1 H-hops of a splice since the
  /// previous boundary (MidRunStats::rows_recomputed). 0 in snapshot mode:
  /// an empty schedule splices nothing.
  std::uint64_t verify_rows_recomputed = 0;
  // --- mid-run churn ---
  std::uint64_t midrun_events_applied = 0;  ///< at their scheduled round
  std::uint64_t midrun_events_flushed = 0;  ///< after early termination
  std::uint64_t midrun_admitted = 0;        ///< joiners admitted mid-run
  std::uint64_t midrun_verifier_refreshes = 0;
  std::uint64_t midrun_frontier_leaves = 0; ///< departures that struck the
                                            ///< observed flood wavefront
  // --- engine-oracle digests (ChurnRunConfig::run_engine only) ---
  /// Path of the forensics report written for this epoch's engine-oracle
  /// divergence ("" = no divergence, no oracle, or no audit_dir).
  std::string forensics_path;
  /// Closed run-level digest of this epoch's fast-path run (0 without
  /// run_engine or when the epoch was skipped).
  /// Scenarios fold these into DIGEST_<exp>.json sidecars.
  std::uint64_t run_digest = 0;
  // --- cross-backend shadow (ChurnRunConfig::shadow_backend only) ---
  /// True when the shadow comparison ran this epoch (skipped epochs run
  /// no shadow). The pass/fail fields default to TRUE so epochs without a
  /// shadow never trip an aggregate all-epochs guard.
  bool shadow_ran = false;
  double shadow_median_ratio = 0.0;  ///< shadow med est / log2 n(t)
  double shadow_ratio = 0.0;         ///< algo2 median est / shadow median est
  bool shadow_in_band = true;        ///< shadow honored its own bound
  bool shadow_agree = true;          ///< pair ratio within the combined band
};

struct ChurnRunResult {
  ChurnTrace trace;
  std::vector<EpochStats> epochs;
};

/// Replays cfg.trace and runs estimation on every epoch's snapshot.
[[nodiscard]] ChurnRunResult run_churn(const ChurnRunConfig& cfg);

/// Epochs the fresh in-band fraction needs to climb back to >= threshold
/// from `burst_epoch` on: 0 = already recovered at the burst epoch itself,
/// -1 = never within the trace. The threshold must actually be MET by some
/// epoch of the trace: a burst at (or past) the final epoch whose in-band
/// fraction never re-enters the band reports -1, not a recovery.
[[nodiscard]] std::int32_t recovery_epochs(const ChurnRunResult& result,
                                           std::uint32_t burst_epoch,
                                           double threshold = 0.9);

}  // namespace byz::dynamics
