// Epoch driver: replays a churn trace against a MutableOverlay and re-runs
// the counting protocol every epoch — the continuous-estimation loop a
// long-running deployment would operate, versus the repo's one-shot
// experiments. Per epoch it records fresh accuracy against the true n(t),
// the STALENESS of the previous epoch's estimates (how wrong a node that
// skips re-estimation becomes as the network drifts), and optionally runs
// the message-level sim::Engine on the same snapshot to assert the two
// protocol tiers still agree decision-for-decision under churn.
//
// The driver selects between the repo's churn models (docs/ARCHITECTURE.md
// has the full matrix):
//
//   * snapshot churn (default): events apply BETWEEN runs; each run
//     executes on a frozen MutableOverlay::snapshot(), whose G is built by
//     its first reader (the setup stage). IncrementalConfig adds
//     drift-adaptive cadence. Every estimating epoch runs the plain
//     Algorithm 2 run.
//   * mid-run churn (ChurnRunConfig::mid_run): the epoch's events are
//     placed on individual flood rounds — uniformly, or adversarially
//     timed/targeted (adversary/midrun_schedule.hpp) — and strike DURING
//     the run (dynamics/midrun.*), under a MembershipPolicy that decides
//     how the in-flight run reacts. Adaptive cadence COMPOSES with it:
//     drift-quiet epochs are skipped and apply their events between-runs
//     style. run_engine doubles as the per-epoch E26 oracle: the
//     message-level engine replays the identical schedule and must agree
//     bitwise.
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

/// The estimation-cadence knobs (off = a protocol run every epoch).
struct IncrementalConfig {
  /// Drift-adaptive epoch scheduling: re-estimate only when the membership
  /// drift accumulated since the last estimation crosses drift_threshold,
  /// instead of on every epoch.
  bool adaptive = false;
  /// Fraction of the last-estimated membership that must churn before the
  /// adaptive scheduler re-estimates.
  double drift_threshold = 0.02;
};

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
  /// Also run the message-level Engine per snapshot and compare outcomes.
  bool run_engine = false;
  /// Accuracy band for est/log2(n(t)) (summarize_accuracy defaults).
  double band_lo = 0.05;
  double band_hi = 3.0;
  /// Adaptive scheduling.
  IncrementalConfig incremental;
  /// Mid-protocol churn (dynamics/midrun.*): apply each epoch's
  /// joins/leaves DURING its estimation run — spread over the run's
  /// expected flood rounds — instead of between runs. Adaptive cadence
  /// COMPOSES with it (see the file comment): drift-quiet epochs are
  /// skipped and their events apply between-runs style. run_engine IS
  /// supported: each epoch the message-level sim::Engine replays the
  /// identical schedule from a copy of the pre-run state and
  /// EpochStats.engine_match records whether the two tiers agreed bitwise
  /// (the E26 oracle).
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
  /// Divergence-forensics audit (obs/digest.hpp): digest every execution
  /// at this driver's oracle seam — the per-epoch engine oracle — and
  /// render a byzobs/forensics/v1 report on any divergence, BEFORE the
  /// failure is recorded. Pure read-side: outcomes and every EpochStats
  /// counter are bitwise unaffected (only forensics_path, an audit-only
  /// field, is set).
  bool audit = false;
  /// Directory forensic reports are written to ("" = render-only: the
  /// report is built but not written, and forensics_path stays empty).
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
  bool engine_match = true;       ///< engine == fastpath (when run_engine)
  // --- adaptive cadence ---
  bool estimated = true;          ///< false = adaptive scheduler skipped
  double drift = 0.0;             ///< accumulated drift entering the epoch
  /// Mid-run mode: Verifier rows the live kReadmitNextPhase refreshes
  /// recomputed, i.e. those within k-1 H-hops of a splice since the
  /// previous boundary (MidRunStats::rows_recomputed). 0 in snapshot mode:
  /// a snapshot run's Verifier views the overlay's ball counts.
  std::uint64_t verify_rows_recomputed = 0;
  // --- mid-run churn ---
  std::uint64_t midrun_events_applied = 0;  ///< at their scheduled round
  std::uint64_t midrun_events_flushed = 0;  ///< after early termination
  std::uint64_t midrun_admitted = 0;        ///< joiners admitted mid-run
  std::uint64_t midrun_verifier_refreshes = 0;
  std::uint64_t midrun_frontier_leaves = 0; ///< departures that struck the
                                            ///< observed flood wavefront
  // --- divergence audit (ChurnRunConfig::audit only) ---
  /// Path of the forensics report written for this epoch's engine-oracle
  /// divergence ("" = no divergence, no audit, or no audit_dir).
  std::string forensics_path;
  /// Closed run-level digest of this epoch's estimation run (0 when audit
  /// is off, the epoch was skipped, or the obs layer is compiled out).
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

/// Replays cfg.trace and runs estimation on every epoch snapshot.
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
