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
#include "sim/engine.hpp"
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

bool same_outcome(const proto::RunResult& a, const proto::RunResult& b) {
  if (a.status != b.status || a.estimate != b.estimate) return false;
  if (a.phases_executed != b.phases_executed) return false;
  if (a.flood_rounds != b.flood_rounds) return false;
  const auto& ia = a.instr;
  const auto& ib = b.instr;
  return ia.setup_messages == ib.setup_messages &&
         ia.token_messages == ib.token_messages &&
         ia.verify_messages == ib.verify_messages &&
         ia.injections_attempted == ib.injections_attempted &&
         ia.injections_accepted == ib.injections_accepted &&
         ia.injections_caught == ib.injections_caught &&
         ia.crashes == ib.crashes;
}

/// Renders (and, with an audit_dir, writes) a byzobs/forensics/v1 report
/// for one epoch's engine-oracle divergence: `a` is the fast path, `b` the
/// engine. Returns the written path ("" when render-only or the write
/// failed).
std::string emit_forensics(const ChurnRunConfig& cfg, std::uint32_t epoch,
                           const std::string& detail, const obs::RunDigester& a,
                           const obs::RunDigester& b,
                           const obs::FlightRecorder* rec_a,
                           const obs::FlightRecorder* rec_b) {
  obs::ForensicsInfo info;
  info.scenario = "run_churn/engine_oracle";
  info.seed = cfg.seed;
  info.flags = "d=" + std::to_string(cfg.d) +
               " strategy=" + std::string(adv::to_string(cfg.strategy)) +
               (cfg.mid_run.enabled ? " mid-run" : "") +
               " epoch=" + std::to_string(epoch);
  info.detail = detail;
  const std::string doc =
      obs::forensics_json(info, a.trail(), b.trail(), rec_a, rec_b);
  if (cfg.audit_dir.empty()) return {};
  const std::string path =
      cfg.audit_dir + "/forensics_churn_engine_oracle_epoch" +
      std::to_string(epoch) + "_" + std::to_string(cfg.seed) + ".json";
  return obs::write_forensics_file(path, doc) ? path : std::string{};
}

}  // namespace

ChurnRunResult run_churn(const ChurnRunConfig& cfg) {
  const IncrementalConfig& inc_cfg = cfg.incremental;

  // Cross-backend shadow oracle: resolve both estimators up front so an
  // unknown name fails before any epoch runs (make_estimator's message
  // lists the registered names).
  std::unique_ptr<proto::Estimator> shadow_est;
  std::unique_ptr<proto::Estimator> primary_est;
  if (!cfg.shadow_backend.empty()) {
    shadow_est = proto::make_estimator(cfg.shadow_backend, cfg.protocol);
    primary_est = proto::make_estimator("algo2", cfg.protocol);
  }
  // The shadow comparison runs both backends on the epoch's post-churn
  // snapshot — dedicated seed stream, fresh strategies, no rng side
  // effects — and records the oracle verdicts.
  const auto run_shadow = [&](EpochStats& stats, std::uint32_t e,
                              const graph::Overlay& snapshot,
                              const std::vector<bool>& dense_byz) {
    if (!shadow_est) return;
    const auto cmp = analysis::compare_backends(
        snapshot, dense_byz, cfg.strategy,
        util::mix_seed(cfg.seed, kShadowStream + e), *primary_est,
        *shadow_est);
    stats.shadow_ran = true;
    stats.shadow_median_ratio = cmp.b.median_ratio;
    stats.shadow_ratio = cmp.ratio;
    stats.shadow_in_band = cmp.b.in_band;
    stats.shadow_agree = cmp.agree;
  };

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
  // clamped the counts. The snapshot path uses it every epoch; mid-run
  // mode uses it for adaptively SKIPPED epochs (no run happens, so there
  // is nothing for the events to strike mid-flight).
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
    if (overlay.num_alive() != epoch.n_after) {
      throw std::logic_error("run_churn: replay diverged from trace n_after");
    }
    // Joiners have no previous estimate: grow the stable-id table BEFORE
    // the staleness scan reads it.
    last_estimate.resize(overlay.id_bound(), 0);
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

    // Membership/staleness bookkeeping shared by every path: judge the
    // estimates honest survivors still carry from previous epochs against
    // the CURRENT truth (before this epoch's run replaces them). Returns
    // the post-churn membership count.
    const auto fill_membership_stats = [&](EpochStats& stats) {
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
        if (ratio >= cfg.band_lo && ratio <= cfg.band_hi) {
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

    if (cfg.mid_run.enabled) {
      // Mid-protocol churn: the epoch's events are spread over the run's
      // expected flood rounds and applied WHILE it floods; whatever the
      // run never reaches is flushed afterwards, so the epoch ends in the
      // same overlay state as the between-runs path.
      const NodeId n_before = overlay.num_alive();
      acc_drift +=
          static_cast<double>(epoch.joins + epoch.sybil_joins + epoch.leaves) /
          n_last_estimated;

      // Drift-adaptive cadence composes with mid-run churn: a skipped
      // epoch runs no protocol, so its events apply between runs.
      const bool estimated = !inc_cfg.adaptive || e == 0 ||
                             acc_drift >= inc_cfg.drift_threshold;
      if (!estimated) {
        replay_between_runs(epoch);
        EpochStats stats;
        fill_membership_stats(stats);
        stats.estimated = false;
        stamp_epoch_span(stats);
        out.epochs.push_back(stats);
        continue;
      }

      const std::uint64_t horizon = expected_horizon_rounds(
          n_before, cfg.d, cfg.protocol.schedule);
      const ChurnSchedule schedule = adv::derive_adversarial_schedule(
          epoch, horizon, util::mix_seed(cfg.seed, kMidRunStream + e),
          cfg.mid_run.schedule, cfg.d, cfg.protocol.schedule);
      const std::uint64_t color_seed =
          util::mix_seed(cfg.seed, kColorStream + e);
      auto strategy = adv::make_strategy(cfg.strategy);
      MidRunConfig mid_cfg;
      mid_cfg.policy = cfg.mid_run.policy;
      mid_cfg.schedule_strategy = cfg.mid_run.schedule;

      // Divergence audit: every tier executed this epoch records a digest
      // trail and a flight tail; the oracle checks below compare them and
      // emit forensics on divergence. Null digesters otherwise (one branch
      // per hook, trails untouched).
      obs::FlightRecorder fast_rec, engine_rec;
      obs::RunDigester fast_dig, engine_dig;
      if (cfg.audit) {
        fast_dig.attach_recorder(&fast_rec);
        engine_dig.attach_recorder(&engine_rec);
      }

      // Engine oracle: replay the identical schedule from a copy of the
      // pre-run state through the message-level engine and demand a
      // bitwise-identical outcome (the E26 contract, per epoch).
      std::optional<MidRunOutcome> engine_outcome;
      if (cfg.run_engine) {
        MutableOverlay engine_overlay = overlay;
        std::vector<bool> engine_byz = byz;
        util::Xoshiro256 engine_rng = churn_rng;
        auto engine_strategy = adv::make_strategy(cfg.strategy);
        engine_outcome = run_counting_midrun_engine(
            engine_overlay, engine_byz, *engine_strategy, cfg.protocol,
            color_seed, schedule, mid_cfg, cfg.churn_adversary, engine_rng,
            nullptr, cfg.audit ? &engine_dig : nullptr);
      }

      auto outcome = run_counting_midrun(
          overlay, byz, *strategy, cfg.protocol, color_seed, schedule, mid_cfg,
          cfg.churn_adversary, churn_rng, nullptr,
          cfg.audit ? &fast_dig : nullptr);
      if (overlay.num_alive() != epoch.n_after) {
        throw std::logic_error(
            "run_churn: mid-run replay diverged from trace n_after");
      }
      last_estimate.resize(overlay.id_bound(), 0);

      EpochStats stats;
      const NodeId n = fill_membership_stats(stats);
      if (cfg.audit) stats.run_digest = fast_dig.trail().run_digest;

      stats.fresh =
          proto::summarize_accuracy(outcome.run, n, cfg.band_lo, cfg.band_hi);
      if (shadow_est) {
        // Post-churn state: the run flushed every event, so a fresh full
        // snapshot is the same membership the between-runs path ends in.
        const auto shadow_snap = overlay.snapshot();
        std::vector<bool> shadow_byz(n, false);
        for (NodeId i = 0; i < n; ++i) {
          if (byz[shadow_snap.dense_to_stable[i]]) shadow_byz[i] = true;
        }
        run_shadow(stats, e, shadow_snap.overlay, shadow_byz);
      }
      stats.messages = outcome.run.instr.total_messages();
      stats.midrun_events_applied = outcome.stats.events_applied;
      stats.midrun_events_flushed = outcome.stats.events_flushed;
      stats.midrun_admitted = outcome.stats.admitted;
      stats.midrun_verifier_refreshes = outcome.stats.verifier_refreshes;
      stats.midrun_frontier_leaves = outcome.stats.frontier_leaves;
      stats.verify_rows_recomputed = outcome.stats.rows_recomputed;
      if (engine_outcome) {
        stats.engine_match = *engine_outcome == outcome;
        if (cfg.audit) {
          // The two tiers execute the identical schedule, so their trails
          // must match entry for entry — a trail-only divergence is a bug
          // the outcome comparison was not sharp enough to see.
          const auto div =
              obs::first_divergence(fast_dig.trail(), engine_dig.trail());
          if (!stats.engine_match || div.diverged()) {
            stats.forensics_path = emit_forensics(
                cfg, e,
                stats.engine_match
                    ? "digest trails diverged (outcomes identical)"
                    : "mid-run engine outcome diverged from fastpath",
                fast_dig, engine_dig, &fast_rec, &engine_rec);
          }
        }
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
      continue;
    }

    replay_between_runs(epoch);

    acc_drift +=
        static_cast<double>(epoch.joins + epoch.sybil_joins + epoch.leaves) /
        n_last_estimated;

    EpochStats stats;
    const NodeId n = fill_membership_stats(stats);

    // Drift-adaptive scheduling: estimation runs when the accumulated
    // drift crosses the bound (epoch 0 always bootstraps the estimates).
    stats.estimated = !inc_cfg.adaptive || e == 0 ||
                      acc_drift >= inc_cfg.drift_threshold;
    if (!stats.estimated) {
      stamp_epoch_span(stats);
      out.epochs.push_back(stats);
      continue;
    }

    // Snapshot and re-estimate; the run's setup stage builds G.
    const auto snap = overlay.snapshot();
    std::vector<bool> dense_byz(n, false);
    for (NodeId i = 0; i < n; ++i) {
      if (byz[snap.dense_to_stable[i]]) dense_byz[i] = true;
    }
    const std::uint64_t color_seed =
        util::mix_seed(cfg.seed, kColorStream + e);
    auto strategy = adv::make_strategy(cfg.strategy);

    // Divergence audit (snapshot path): the epoch's run and the engine
    // oracle each record a trail.
    obs::FlightRecorder run_rec, engine_rec;
    obs::RunDigester run_dig, engine_dig;
    if (cfg.audit) {
      run_dig.attach_recorder(&run_rec);
      engine_dig.attach_recorder(&engine_rec);
    }

    proto::RunControls run_rc;
    run_rc.digester = cfg.audit ? &run_dig : nullptr;
    const proto::RunResult run = proto::run_counting_with(
        snap.overlay, dense_byz, *strategy, cfg.protocol, color_seed, run_rc);

    if (cfg.audit) stats.run_digest = run_dig.trail().run_digest;
    stats.fresh = proto::summarize_accuracy(run, n, cfg.band_lo, cfg.band_hi);
    run_shadow(stats, e, snap.overlay, dense_byz);
    stats.messages = run.instr.total_messages();

    if (cfg.run_engine) {
      auto strategy2 = adv::make_strategy(cfg.strategy);
      sim::Engine engine(snap.overlay, dense_byz, *strategy2, cfg.protocol,
                         color_seed, nullptr,
                         cfg.audit ? &engine_dig : nullptr);
      stats.engine_match = same_outcome(run, engine.run());
      if (cfg.audit) {
        // The engine and the epoch's run execute identical schedules, so
        // their trails must match entry for entry.
        const auto div =
            obs::first_divergence(run_dig.trail(), engine_dig.trail());
        if (!stats.engine_match || div.diverged()) {
          stats.forensics_path = emit_forensics(
              cfg, e,
              stats.engine_match
                  ? "digest trails diverged (outcomes identical)"
                  : "engine outcome diverged from the fastpath",
              run_dig, engine_dig, &run_rec, &engine_rec);
        }
      }
    }

    for (NodeId i = 0; i < n; ++i) {
      if (run.status[i] == proto::NodeStatus::kDecided) {
        last_estimate[snap.dense_to_stable[i]] = run.estimate[i];
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
