#include "dynamics/epoch_driver.hpp"

#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "analysis/backend_compare.hpp"
#include "graph/categories.hpp"
#include "obs/digest.hpp"
#include "obs/trace.hpp"
#include "protocols/estimator.hpp"
#include "sim/runner.hpp"

namespace byz::dynamics {

namespace {

using graph::NodeId;

/// Seed-stream tags (arbitrary distinct constants).
constexpr std::uint64_t kOverlayStream = 0x0B00;
constexpr std::uint64_t kPlacementStream = 0x0B12;
constexpr std::uint64_t kChurnStream = 0xC002;
constexpr std::uint64_t kColorStream = 0xE000;
constexpr std::uint64_t kMidRunStream = 0x31D1;
constexpr std::uint64_t kShadowStream = 0x5AAD;

/// The engine oracle's audit settings for one epoch: the report's repro
/// line and the directory it is written to.
obs::AuditConfig oracle_audit_config(const ChurnRunConfig& cfg,
                                     std::uint32_t epoch) {
  obs::AuditConfig audit;
  audit.out_dir = cfg.audit_dir;
  audit.scenario = "run_churn/engine_oracle";
  audit.seed = cfg.seed;
  audit.flags = "d=" + std::to_string(cfg.d) +
                " strategy=" + std::string(adv::to_string(cfg.strategy)) +
                (cfg.mid_run.enabled ? " mid-run" : "") +
                " epoch=" + std::to_string(epoch);
  return audit;
}

}  // namespace

ChurnRunResult run_churn(const ChurnRunConfig& cfg) {
  // Cross-backend shadow oracle: resolve both estimators up front so an
  // unknown name fails before any epoch runs (make_estimator's message
  // lists the registered names).
  std::unique_ptr<proto::Estimator> shadow_est;
  std::unique_ptr<proto::Estimator> primary_est;
  if (!cfg.shadow_backend.empty()) {
    shadow_est = proto::make_estimator(cfg.shadow_backend, cfg.protocol);
    primary_est = proto::make_estimator("algo2", cfg.protocol);
  }

  ChurnRunResult out;
  out.trace = generate_trace(cfg.trace);

  MutableOverlay overlay(cfg.trace.n0, cfg.d, cfg.k,
                         util::mix_seed(cfg.seed, kOverlayStream));

  // Initial Byzantine placement on the bootstrap ids (the paper's uniform
  // model); the mask is indexed by STABLE id and grows with joins.
  util::Xoshiro256 place_rng(util::mix_seed(cfg.seed, kPlacementStream));
  std::vector<bool> byz = graph::random_byzantine_mask(
      cfg.trace.n0, sim::derive_byz_count(cfg.trace.n0, cfg.delta), place_rng);

  util::Xoshiro256 churn_rng(util::mix_seed(cfg.seed, kChurnStream));
  // Last decided estimate per stable id (0 = none yet); feeds staleness.
  std::vector<std::uint32_t> last_estimate(overlay.id_bound(), 0);
  double acc_drift = 0.0;
  double n_last_estimated = cfg.trace.n0;

  // Between-runs event replay: joins first (honest, then sybil), then
  // departures — the bookkeeping order generate_trace assumed when it
  // clamped the counts. Snapshot churn applies every epoch's events this
  // way; mid-run churn only those of adaptively SKIPPED epochs (no run
  // happens, so there is nothing for the events to strike mid-flight).
  const auto replay_between_runs = [&](const ChurnEpoch& epoch) {
    for (std::uint32_t i = 0; i < epoch.joins; ++i) {
      const auto anchors = adv::plan_join_anchors(
          overlay, byz, cfg.churn_adversary, /*joiner_byzantine=*/false,
          churn_rng);
      overlay.join_at(anchors);
      byz.push_back(false);
    }
    for (std::uint32_t i = 0; i < epoch.sybil_joins; ++i) {
      const auto anchors = adv::plan_join_anchors(
          overlay, byz, cfg.churn_adversary, /*joiner_byzantine=*/true,
          churn_rng);
      overlay.join_at(anchors);
      byz.push_back(true);
    }
    for (std::uint32_t i = 0; i < epoch.leaves; ++i) {
      overlay.leave(adv::pick_departure(overlay, byz, cfg.churn_adversary,
                                        churn_rng));
    }
  };

  out.epochs.reserve(out.trace.epochs.size());
  for (std::uint32_t e = 0; e < out.trace.epochs.size(); ++e) {
    const ChurnEpoch& epoch = out.trace.epochs[e];

    // Observability: one span per epoch (pure read-side; stamped with the
    // drift/estimate/policy decision right before its stats are pushed).
    obs::Span epoch_span("epoch");
    epoch_span.arg("epoch", e)
        .arg("joins", epoch.joins + epoch.sybil_joins)
        .arg("leaves", epoch.leaves);
    const auto stamp_epoch_span = [&](const EpochStats& stats) {
      epoch_span.arg("policy", cfg.mid_run.enabled ? "mid-run" : "snapshot")
          .arg("estimated", stats.estimated ? 1 : 0)
          .arg("drift", stats.drift)
          .arg("estimate_mean_ratio", stats.fresh.mean_ratio);
    };

    // Membership/staleness bookkeeping, once the epoch's events have all
    // applied: judge the estimates honest survivors still carry from
    // previous epochs against the CURRENT truth (before this epoch's run
    // replaces them). Returns the post-churn membership count.
    const auto fill_membership_stats = [&](EpochStats& stats) {
      if (overlay.num_alive() != epoch.n_after) {
        throw std::logic_error("run_churn: replay diverged from trace n_after");
      }
      // Joiners have no previous estimate: grow the stable-id table BEFORE
      // the staleness scan reads it.
      last_estimate.resize(overlay.id_bound(), 0);
      const auto alive = overlay.alive_nodes();
      const auto n = static_cast<NodeId>(alive.size());
      stats.n_true = n;
      stats.joins = epoch.joins + epoch.sybil_joins;
      stats.leaves = epoch.leaves;
      stats.drift = acc_drift;
      for (const NodeId s : alive) {
        if (byz[s]) ++stats.byz_alive;
      }
      const double log_n = std::log2(static_cast<double>(n));
      for (const NodeId s : alive) {
        if (byz[s]) continue;
        const std::uint32_t est = last_estimate[s];
        if (est == 0) continue;
        ++stats.stale_nodes;
        const double ratio = static_cast<double>(est) / log_n;
        if (ratio >= proto::kBandLo && ratio <= proto::kBandHi) {
          ++stats.stale_in_band;
        }
      }
      stats.stale_frac_in_band =
          stats.stale_nodes == 0
              ? 0.0
              : static_cast<double>(stats.stale_in_band) /
                    static_cast<double>(stats.stale_nodes);
      return n;
    };

    acc_drift +=
        static_cast<double>(epoch.joins + epoch.sybil_joins + epoch.leaves) /
        n_last_estimated;
    // Drift-adaptive scheduling: estimation runs when the accumulated drift
    // crosses the bound (epoch 0 always bootstraps the estimates; drift is
    // never negative, so a bound of 0 runs every epoch).
    const bool estimated = e == 0 || acc_drift >= cfg.drift_threshold;

    // Mid-run churn spreads an estimated epoch's events over its run's
    // expected flood rounds, where they strike WHILE it floods; whatever
    // the run never reaches is flushed afterwards, so the epoch ends in the
    // same overlay state as the between-runs path. Every other epoch
    // applies its events between runs; if it estimates, its run takes an
    // empty schedule: bitwise the static run on the same snapshot (E24),
    // flooded in fused lanes, with a setup that never builds G.
    ChurnSchedule schedule;
    if (cfg.mid_run.enabled && estimated) {
      const std::uint64_t horizon = expected_horizon_rounds(
          overlay.num_alive(), cfg.d, cfg.protocol.schedule);
      schedule = adv::derive_adversarial_schedule(
          epoch, horizon, util::mix_seed(cfg.seed, kMidRunStream + e),
          cfg.mid_run.schedule, cfg.d, cfg.protocol.schedule);
    } else {
      replay_between_runs(epoch);
    }
    if (!estimated) {
      EpochStats stats;
      fill_membership_stats(stats);
      stats.estimated = false;
      stamp_epoch_span(stats);
      out.epochs.push_back(stats);
      continue;
    }

    const std::uint64_t color_seed =
        util::mix_seed(cfg.seed, kColorStream + e);
    auto strategy = adv::make_strategy(cfg.strategy);
    MidRunConfig mid_cfg;
    mid_cfg.policy = cfg.mid_run.policy;
    mid_cfg.schedule_strategy = cfg.mid_run.schedule;

    // Engine oracle: replay the identical schedule from a copy of the
    // pre-run state through the message-level engine and demand a
    // bitwise-identical outcome and digest trail (the E26 contract, per
    // epoch). Without it no digester is attached.
    std::optional<obs::OracleAudit> audit;
    std::optional<MidRunOutcome> engine_outcome;
    if (cfg.run_engine) {
      audit.emplace(oracle_audit_config(cfg, e));
      MutableOverlay engine_overlay = overlay;
      std::vector<bool> engine_byz = byz;
      util::Xoshiro256 engine_rng = churn_rng;
      auto engine_strategy = adv::make_strategy(cfg.strategy);
      engine_outcome = run_counting_midrun_engine(
          engine_overlay, engine_byz, *engine_strategy, cfg.protocol,
          color_seed, schedule, mid_cfg, cfg.churn_adversary, engine_rng,
          nullptr, &audit->b());
    }

    auto outcome = run_counting_midrun(
        overlay, byz, *strategy, cfg.protocol, color_seed, schedule, mid_cfg,
        cfg.churn_adversary, churn_rng, nullptr,
        audit ? &audit->a() : nullptr);

    EpochStats stats;
    const NodeId n = fill_membership_stats(stats);

    stats.fresh = proto::summarize_accuracy(outcome.run, n);
    if (shadow_est) {
      // The shadow comparison runs both backends cold on the post-churn
      // snapshot — the run flushed every event, so a fresh snapshot is the
      // membership the between-runs path ends in — with a dedicated seed
      // stream and no rng side effects, and records the oracle verdicts.
      const auto snap = overlay.snapshot();
      std::vector<bool> snap_byz(n);
      for (NodeId i = 0; i < n; ++i) snap_byz[i] = byz[snap.dense_to_stable[i]];
      const auto cmp = analysis::compare_backends(
          snap.overlay, snap_byz, cfg.strategy,
          util::mix_seed(cfg.seed, kShadowStream + e), *primary_est,
          *shadow_est);
      stats.shadow_ran = true;
      stats.shadow_median_ratio = cmp.b.median_ratio;
      stats.shadow_ratio = cmp.ratio;
      stats.shadow_in_band = cmp.b.in_band;
      stats.shadow_agree = cmp.agree;
    }
    stats.messages = outcome.run.instr.total_messages();
    stats.midrun_events_applied = outcome.stats.events_applied;
    stats.midrun_events_flushed = outcome.stats.events_flushed;
    stats.midrun_admitted = outcome.stats.admitted;
    stats.midrun_verifier_refreshes = outcome.stats.verifier_refreshes;
    stats.midrun_frontier_leaves = outcome.stats.frontier_leaves;
    stats.verify_rows_recomputed = outcome.stats.rows_recomputed;
    if (engine_outcome) {
      const obs::OracleVerdict verdict = audit->judge(
          *engine_outcome == outcome,
          "churn_engine_oracle_epoch" + std::to_string(e));
      stats.engine_match = verdict.passed;
      stats.forensics_path = verdict.forensics_path;
      stats.run_digest = verdict.run_digest_a;
    }
    for (std::size_t i = 0; i < outcome.run.status.size(); ++i) {
      if (outcome.run.status[i] == proto::NodeStatus::kDecided) {
        last_estimate[outcome.run_to_stable[i]] = outcome.run.estimate[i];
      }
    }
    acc_drift = 0.0;
    n_last_estimated = static_cast<double>(n);
    stamp_epoch_span(stats);
    out.epochs.push_back(stats);
  }
  return out;
}

std::int32_t recovery_epochs(const ChurnRunResult& result,
                             std::uint32_t burst_epoch, double threshold) {
  // -1 unless the threshold is actually MET by an epoch of the trace: a
  // burst at (or past) the final epoch whose fresh in-band fraction never
  // re-enters the band is "never recovered", not trivially recovered.
  for (std::uint32_t e = burst_epoch; e < result.epochs.size(); ++e) {
    if (result.epochs[e].fresh.frac_in_band >= threshold) {
      return static_cast<std::int32_t>(e - burst_epoch);
    }
  }
  return -1;
}

}  // namespace byz::dynamics
