#include "dynamics/epoch_driver.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "analysis/backend_compare.hpp"
#include "graph/categories.hpp"
#include "incremental/engine.hpp"
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
/// for one oracle seam of one epoch. Returns the written path ("" when
/// render-only or the write failed).
std::string emit_forensics(const ChurnRunConfig& cfg, std::uint32_t epoch,
                           const std::string& seam, const std::string& detail,
                           const char* tier_a, const char* tier_b,
                           const obs::RunDigester& a, const obs::RunDigester& b,
                           const obs::FlightRecorder* rec_a,
                           const obs::FlightRecorder* rec_b) {
  obs::ForensicsInfo info;
  info.scenario = "run_churn/" + seam;
  info.seed = cfg.seed;
  info.flags = "d=" + std::to_string(cfg.d) +
               " strategy=" + std::string(adv::to_string(cfg.strategy)) +
               (cfg.mid_run.enabled ? " mid-run" : "") +
               (cfg.incremental.warm_start ? " warm" : "") +
               (cfg.incremental.eps_warm ? " eps-warm" : "") +
               " epoch=" + std::to_string(epoch);
  info.detail = detail;
  info.tier_a = tier_a;
  info.tier_b = tier_b;
  const std::string doc =
      obs::forensics_json(info, a.trail(), b.trail(), rec_a, rec_b);
  if (cfg.audit_dir.empty()) return {};
  const std::string path = cfg.audit_dir + "/forensics_churn_" + seam +
                           "_epoch" + std::to_string(epoch) + "_" +
                           std::to_string(cfg.seed) + ".json";
  return obs::write_forensics_file(path, doc) ? path : std::string{};
}

}  // namespace

ChurnRunResult run_churn(const ChurnRunConfig& cfg) {
  const IncrementalConfig& inc_cfg = cfg.incremental;
  if (!cfg.mid_run.enabled && cfg.run_engine && inc_cfg.warm_start &&
      !inc_cfg.verify_warm) {
    throw std::invalid_argument(
        "run_churn: run_engine with warm_start requires verify_warm (the "
        "message-level Engine is compared against the cold tier; under "
        "mid_run the Engine replays the warm run itself, so the "
        "requirement lifts)");
  }
  if (inc_cfg.eps_warm && !inc_cfg.warm_start) {
    throw std::invalid_argument(
        "run_churn: eps_warm is a mode of the warm tier (enable warm_start)");
  }
  if (cfg.mid_run.enabled && inc_cfg.eps_warm && inc_cfg.verify_warm &&
      cfg.mid_run.schedule == adv::MidRunScheduleStrategy::kFrontierLeaves) {
    throw std::invalid_argument(
        "run_churn: eps_warm + verify_warm under kFrontierLeaves is "
        "unsupported — frontier-directed victims depend on the observed "
        "wavefront, which an ε-entry run shifts, so the cold shadow floods "
        "a different overlay evolution and its divergence count would be "
        "meaningless");
  }

  // Cross-backend shadow oracle: resolve both estimators up front so an
  // unknown name fails before any epoch runs (make_estimator's message
  // lists the registered names).
  std::unique_ptr<proto::Estimator> shadow_est;
  std::unique_ptr<proto::Estimator> primary_est;
  if (!cfg.shadow_backend.empty()) {
    shadow_est = proto::make_estimator(cfg.shadow_backend, cfg.protocol);
    primary_est = proto::make_estimator("algo2", cfg.protocol);
  }
  // The shadow comparison runs both backends cold on the epoch's
  // post-churn snapshot — dedicated seed stream, fresh strategies, no rng
  // or warm-state side effects — and records the oracle verdicts.
  const auto run_shadow = [&](EpochStats& stats, std::uint32_t e,
                              const graph::Overlay& snapshot,
                              const std::vector<bool>& dense_byz) {
    if (!shadow_est) return;
    const auto cmp = analysis::compare_backends(
        snapshot, dense_byz, cfg.strategy,
        util::mix_seed(cfg.seed, kShadowStream + e), *primary_est,
        *shadow_est, cfg.flood_threads);
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
  // The incremental engine owns dirty-ball tracking; it is also attached
  // (with reuse off: a full rebuild through the same assembly path) when
  // only the warm tier is on, because the composed mid-run path reads the
  // ε entry's dense→stable map off the engine's run-start snapshot. Under
  // mid-run churn the feed's splices go through the same observer, so the
  // dirty masks stay exact there too.
  std::optional<incremental::IncrementalEngine> inc;
  if (inc_cfg.incremental || inc_cfg.warm_start || inc_cfg.verify_snapshots) {
    incremental::IncrementalEngine::Config engine_cfg;
    engine_cfg.incremental = inc_cfg.incremental;
    engine_cfg.verify_against_full = inc_cfg.verify_snapshots;
    inc.emplace(overlay, engine_cfg);
  }

  // Initial Byzantine placement on the bootstrap ids (the paper's uniform
  // model); the mask is indexed by STABLE id and grows with joins.
  util::Xoshiro256 place_rng(util::mix_seed(cfg.seed, kPlacementStream));
  std::vector<bool> byz = graph::random_byzantine_mask(
      cfg.trace.n0, sim::derive_byz_count(cfg.trace.n0, cfg.delta), place_rng);

  util::Xoshiro256 churn_rng(util::mix_seed(cfg.seed, kChurnStream));
  // Last decided estimate per stable id (0 = none yet); feeds staleness.
  std::vector<std::uint32_t> last_estimate(overlay.id_bound(), 0);
  proto::WarmState warm_state;
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
          .arg("estimate_mean_ratio", stats.fresh.mean_ratio)
          .arg("warm", stats.warm_used ? 1 : 0)
          .arg("eps_entry", stats.eps_entry_phase)
          .arg("balls_recomputed", stats.balls_recomputed);
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
      // epoch runs no protocol, so its events apply between runs (the
      // splices still notify the dirty-ball tracker, so the NEXT
      // estimating epoch's snapshot accounts for them).
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
      mid_cfg.flood_threads = cfg.flood_threads;

      // Divergence audit: every tier executed this epoch records a digest
      // trail and a flight tail; the oracle checks below compare them and
      // emit forensics on divergence. Null digesters otherwise (one branch
      // per hook, trails untouched).
      obs::FlightRecorder fast_rec, engine_rec, cold_rec;
      obs::RunDigester fast_dig, engine_dig, cold_dig;
      if (cfg.audit) {
        fast_dig.attach_recorder(&fast_rec);
        engine_dig.attach_recorder(&engine_rec);
        cold_dig.attach_recorder(&cold_rec);
      }

      // Composed tier: the run starts from the incremental snapshot
      // (bitwise identical to a cold rebuild by IncrementalEngine's
      // contract — verify_snapshots asserts it) and may enter at the
      // ε-warm phase.
      std::optional<MutableOverlay::Snapshot> snap;
      if (inc) snap.emplace(inc->snapshot());
      MidRunComposed composed;
      composed.snapshot = snap ? &*snap : nullptr;
      proto::WarmConfig warm_cfg = inc_cfg.warm;
      proto::EpsEntryPlan eps_plan;
      bool warm_used = false;
      if (inc_cfg.warm_start) {
        // Same fallback ladder as the snapshot path: under adaptive
        // scheduling every estimation runs at drift >= drift_threshold by
        // construction, so the warm bound must sit above it.
        if (inc_cfg.adaptive) {
          warm_cfg.max_drift =
              std::max(warm_cfg.max_drift, 2.0 * inc_cfg.drift_threshold);
        }
        warm_cfg.eps_phase_skip = inc_cfg.eps_warm;
        warm_cfg.eps_budget = inc_cfg.eps_budget;
        warm_cfg.eps_margin = inc_cfg.eps_margin;
        const bool cold =
            !warm_state.has_run || acc_drift > warm_cfg.max_drift;
        warm_used = !cold;
        if (inc_cfg.eps_warm) {
          std::vector<bool> dense_byz(n_before, false);
          for (NodeId i = 0; i < n_before; ++i) {
            if (byz[snap->dense_to_stable[i]]) dense_byz[i] = true;
          }
          eps_plan = proto::choose_eps_entry(
              warm_state, snap->dense_to_stable, dense_byz,
              proto::resolve_max_phase(snap->overlay, cfg.protocol), cfg.d,
              cfg.protocol.schedule, warm_cfg, /*allow_skip=*/!cold);
          composed.start_phase = eps_plan.entry_phase;
        }
      }

      // Engine oracle: replay the identical schedule from a copy of the
      // pre-run state through the message-level engine and demand a
      // bitwise-identical outcome (the E26 contract, per epoch).
      std::optional<MidRunOutcome> engine_outcome;
      if (cfg.run_engine) {
        MutableOverlay engine_overlay = overlay;
        engine_overlay.set_observer(nullptr);
        std::vector<bool> engine_byz = byz;
        util::Xoshiro256 engine_rng = churn_rng;
        auto engine_strategy = adv::make_strategy(cfg.strategy);
        engine_outcome = run_counting_midrun_engine(
            engine_overlay, engine_byz, *engine_strategy, cfg.protocol,
            color_seed, schedule, mid_cfg, cfg.churn_adversary, engine_rng,
            &composed, cfg.audit ? &engine_dig : nullptr);
      }

      // verify_warm: shadow the composed run with a COLD mid-run replay on
      // copies — same snapshot, entry at phase 1. Exact-warm epochs must
      // match it decision-for-decision; ε-warm epochs may diverge within
      // the ε·n budget.
      std::optional<MidRunOutcome> cold_outcome;
      if (inc_cfg.warm_start && inc_cfg.verify_warm) {
        MutableOverlay cold_overlay = overlay;
        cold_overlay.set_observer(nullptr);
        std::vector<bool> cold_byz = byz;
        util::Xoshiro256 cold_rng = churn_rng;
        auto cold_strategy = adv::make_strategy(cfg.strategy);
        MidRunComposed cold_composed;
        cold_composed.snapshot = composed.snapshot;
        cold_outcome = run_counting_midrun(
            cold_overlay, cold_byz, *cold_strategy, cfg.protocol, color_seed,
            schedule, mid_cfg, cfg.churn_adversary, cold_rng, &cold_composed,
            cfg.audit ? &cold_dig : nullptr);
      }

      auto outcome = run_counting_midrun(
          overlay, byz, *strategy, cfg.protocol, color_seed, schedule, mid_cfg,
          cfg.churn_adversary, churn_rng, &composed,
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
      stats.subphases_scheduled = outcome.run.subphases_scheduled;
      stats.subphases_executed = outcome.run.subphases_executed;
      if (snap) {
        stats.balls_recomputed = inc->stats().last_recomputed;
        stats.balls_reused = inc->stats().last_reused;
      } else {
        stats.balls_recomputed = n_before;  // full snapshot at run start
      }
      stats.warm_used = warm_used;
      stats.eps_used = eps_plan.eps_used;
      stats.eps_entry_phase = eps_plan.entry_phase;
      stats.eps_budget_nodes = eps_plan.budget_nodes;
      stats.eps_skipped_subphases = eps_plan.skipped_subphases;
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
                cfg, e, "engine_oracle",
                stats.engine_match
                    ? "digest trails diverged (outcomes identical)"
                    : "mid-run engine outcome diverged from fastpath",
                "fastpath", "engine", fast_dig, engine_dig, &fast_rec,
                &engine_rec);
          }
        }
      }
      if (cold_outcome) {
        stats.messages_cold = cold_outcome->run.instr.total_messages();
        if (!eps_plan.eps_used) {
          // Exact tier: the equivalence contract is bitwise.
          if (cold_outcome->run.status != outcome.run.status ||
              cold_outcome->run.estimate != outcome.run.estimate) {
            // The trails are EVIDENCE here — the headline stays the
            // decision mismatch.
            const std::string report = cfg.audit
                ? emit_forensics(cfg, e, "verify_warm",
                                 "warm mid-run decisions diverged from the "
                                 "cold replay",
                                 "warm", "cold-shadow", fast_dig, cold_dig,
                                 &fast_rec, &cold_rec)
                : std::string{};
            throw std::logic_error(
                "run_churn: warm mid-run decisions diverged from the cold "
                "replay at epoch " + std::to_string(e) +
                (report.empty() ? "" : " (forensics: " + report + ")"));
          }
        } else {
          // ε-warm tier: divergence is allowed but must stay within the
          // paper's outlier budget — the accounting invariant.
          std::uint64_t divergent = 0;
          for (std::size_t i = 0; i < outcome.run.status.size(); ++i) {
            if (cold_outcome->run.status[i] != outcome.run.status[i] ||
                cold_outcome->run.estimate[i] != outcome.run.estimate[i]) {
              ++divergent;
            }
          }
          stats.eps_divergent = divergent;
          if (divergent > eps_plan.budget_nodes) {
            const std::string report = cfg.audit
                ? emit_forensics(cfg, e, "verify_warm",
                                 "eps-warm mid-run divergence exceeded the "
                                 "ε·n budget",
                                 "eps-warm", "cold-shadow", fast_dig,
                                 cold_dig, &fast_rec, &cold_rec)
                : std::string{};
            throw std::logic_error(
                "run_churn: eps-warm mid-run divergence " +
                std::to_string(divergent) + " exceeds the ε·n budget " +
                std::to_string(eps_plan.budget_nodes) + " at epoch " +
                std::to_string(e) +
                (report.empty() ? "" : " (forensics: " + report + ")"));
          }
        }
      }

      for (std::size_t i = 0; i < outcome.run.status.size(); ++i) {
        if (outcome.run.status[i] == proto::NodeStatus::kDecided) {
          last_estimate[outcome.run_to_stable[i]] = outcome.run.estimate[i];
        }
      }
      // Seed the next epoch's warm entry from this run's decisions (every
      // run id maps to a stable id once the flush resolved the joiners).
      if (inc_cfg.warm_start) {
        proto::fold_run_estimates(warm_state, outcome.run,
                                  outcome.run_to_stable, cfg.d);
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

    // Snapshot (incremental or full rebuild) and re-estimate.
    const auto snap = inc ? inc->snapshot() : overlay.snapshot();
    if (inc) {
      stats.balls_recomputed = inc->stats().last_recomputed;
      stats.balls_reused = inc->stats().last_reused;
    } else {
      stats.balls_recomputed = n;
    }
    std::vector<bool> dense_byz(n, false);
    for (NodeId i = 0; i < n; ++i) {
      if (byz[snap.dense_to_stable[i]]) dense_byz[i] = true;
    }
    const std::uint64_t color_seed =
        util::mix_seed(cfg.seed, kColorStream + e);
    auto strategy = adv::make_strategy(cfg.strategy);

    // Divergence audit (snapshot path): the epoch's run, the verify_warm
    // cold shadow, and the engine oracle each record a trail.
    obs::FlightRecorder run_rec, cold_rec, engine_rec;
    obs::RunDigester run_dig, cold_dig, engine_dig;
    if (cfg.audit) {
      run_dig.attach_recorder(&run_rec);
      cold_dig.attach_recorder(&cold_rec);
      engine_dig.attach_recorder(&engine_rec);
    }

    proto::RunResult run;
    proto::RunResult cold;
    bool have_cold = false;
    if (inc_cfg.warm_start) {
      // Under adaptive scheduling every estimation runs at drift >=
      // drift_threshold by construction — that is the scheduler's cadence,
      // not an anomaly, so the warm fallback bound must sit above it or
      // the warm tier would be structurally dead. Twice the threshold
      // leaves room for the one-epoch overshoot past the trigger.
      proto::WarmConfig warm_cfg = inc_cfg.warm;
      if (inc_cfg.adaptive) {
        warm_cfg.max_drift =
            std::max(warm_cfg.max_drift, 2.0 * inc_cfg.drift_threshold);
      }
      warm_cfg.eps_phase_skip = inc_cfg.eps_warm;
      warm_cfg.eps_budget = inc_cfg.eps_budget;
      warm_cfg.eps_margin = inc_cfg.eps_margin;
      warm_cfg.flood_threads = cfg.flood_threads;
      auto warm = proto::run_counting_warm(
          snap.overlay, dense_byz, *strategy, cfg.protocol, color_seed,
          snap.dense_to_stable, acc_drift, warm_cfg, warm_state,
          cfg.audit ? &run_dig : nullptr);
      run = std::move(warm.run);
      stats.warm_used = warm.warm_used;
      stats.eps_used = warm.eps_used;
      stats.eps_entry_phase = warm.eps_entry_phase;
      stats.eps_budget_nodes = warm.eps_budget_nodes;
      stats.eps_skipped_subphases = warm.eps_skipped_subphases;
      if (inc_cfg.verify_warm) {
        auto cold_strategy = adv::make_strategy(cfg.strategy);
        proto::RunControls cold_rc;
        cold_rc.digester = cfg.audit ? &cold_dig : nullptr;
        cold_rc.flood_threads = cfg.flood_threads;
        cold = proto::run_counting_with(snap.overlay, dense_byz,
                                        *cold_strategy, cfg.protocol,
                                        color_seed, cold_rc);
        have_cold = true;
        stats.messages_cold = cold.instr.total_messages();
        if (!warm.eps_used) {
          // Exact tier: the equivalence contract is bitwise. Warm and cold
          // trails legitimately differ in shape (lazy subphases), so the
          // forensics here are evidence attached to the decision mismatch.
          if (cold.status != run.status || cold.estimate != run.estimate) {
            const std::string report = cfg.audit
                ? emit_forensics(cfg, e, "verify_warm",
                                 "warm-started decisions diverged from the "
                                 "cold run",
                                 "warm", "cold-shadow", run_dig, cold_dig,
                                 &run_rec, &cold_rec)
                : std::string{};
            throw std::logic_error(
                "run_churn: warm-started decisions diverged from the cold "
                "run at epoch " + std::to_string(e) +
                (report.empty() ? "" : " (forensics: " + report + ")"));
          }
        } else {
          // ε-warm tier: divergence is allowed but must stay within the
          // paper's outlier budget — the accounting invariant.
          std::uint64_t divergent = 0;
          for (NodeId i = 0; i < n; ++i) {
            if (cold.status[i] != run.status[i] ||
                cold.estimate[i] != run.estimate[i]) {
              ++divergent;
            }
          }
          stats.eps_divergent = divergent;
          if (divergent > warm.eps_budget_nodes) {
            const std::string report = cfg.audit
                ? emit_forensics(cfg, e, "verify_warm",
                                 "eps-warm divergence exceeded the ε·n "
                                 "budget",
                                 "eps-warm", "cold-shadow", run_dig, cold_dig,
                                 &run_rec, &cold_rec)
                : std::string{};
            throw std::logic_error(
                "run_churn: eps-warm divergence " + std::to_string(divergent) +
                " exceeds the ε·n budget " +
                std::to_string(warm.eps_budget_nodes) + " at epoch " +
                std::to_string(e) +
                (report.empty() ? "" : " (forensics: " + report + ")"));
          }
        }
      }
    } else {
      proto::RunControls run_rc;
      run_rc.digester = cfg.audit ? &run_dig : nullptr;
      run_rc.flood_threads = cfg.flood_threads;
      run = proto::run_counting_with(snap.overlay, dense_byz, *strategy,
                                     cfg.protocol, color_seed, run_rc);
    }

    if (cfg.audit) stats.run_digest = run_dig.trail().run_digest;
    stats.fresh = proto::summarize_accuracy(run, n, cfg.band_lo, cfg.band_hi);
    run_shadow(stats, e, snap.overlay, dense_byz);
    stats.messages = run.instr.total_messages();
    stats.subphases_scheduled = run.subphases_scheduled;
    stats.subphases_executed = run.subphases_executed;

    if (cfg.run_engine) {
      auto strategy2 = adv::make_strategy(cfg.strategy);
      sim::Engine engine(snap.overlay, dense_byz, *strategy2, cfg.protocol,
                         color_seed, nullptr, 1,
                         cfg.audit ? &engine_dig : nullptr);
      // Warm runs skip flood traffic by design; the Engine's full-fidelity
      // accounting is compared against the cold tier (verify_warm is
      // enforced above whenever warm_start is on).
      stats.engine_match = same_outcome(have_cold ? cold : run, engine.run());
      if (cfg.audit) {
        // The engine and its comparison partner (the cold run, or the
        // epoch's plain run when no warm tier is on) execute identical
        // schedules, so their trails must match entry for entry.
        const obs::RunDigester& ref = have_cold ? cold_dig : run_dig;
        const obs::FlightRecorder& ref_rec = have_cold ? cold_rec : run_rec;
        const auto div =
            obs::first_divergence(ref.trail(), engine_dig.trail());
        if (!stats.engine_match || div.diverged()) {
          stats.forensics_path = emit_forensics(
              cfg, e, "engine_oracle",
              stats.engine_match
                  ? "digest trails diverged (outcomes identical)"
                  : "engine outcome diverged from the fastpath",
              have_cold ? "cold-shadow" : "fastpath", "engine", ref,
              engine_dig, &ref_rec, &engine_rec);
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
