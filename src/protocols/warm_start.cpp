#include "protocols/warm_start.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/digest.hpp"
#include "obs/trace.hpp"
#include "protocols/refine.hpp"

namespace byz::proto {

using graph::NodeId;

namespace {

NodeId stable_bound(std::span<const NodeId> dense_to_stable) {
  NodeId bound = 0;
  for (const NodeId s : dense_to_stable) bound = std::max(bound, s);
  return bound + 1;
}

}  // namespace

RefineFold fold_run_estimates(WarmState& state, const RunResult& run,
                              std::span<const NodeId> dense_to_stable,
                              std::uint32_t d) {
  RefineFold out;
  const NodeId bound = stable_bound(dense_to_stable);
  if (state.estimate.size() < bound) {
    state.estimate.resize(bound, 0);
    state.refined.resize(bound, 0.0);
  }
  for (std::size_t v = 0; v < dense_to_stable.size(); ++v) {
    const NodeId s = dense_to_stable[v];
    const std::uint32_t est =
        run.status[v] == NodeStatus::kDecided ? run.estimate[v] : 0;
    if (est == 0) {
      state.estimate[s] = 0;
      state.refined[s] = 0.0;
      continue;
    }
    // The refined readout is a pure function of the decided phase: re-run
    // the calibration only where the phase actually moved.
    if (state.estimate[s] == est) {
      ++out.reused;
    } else {
      state.refined[s] = refined_log_estimate(est, d);
      ++out.recomputed;
    }
    state.estimate[s] = est;
  }
  state.has_run = true;
  return out;
}

EpsEntryPlan choose_eps_entry(const WarmState& state,
                              std::span<const NodeId> dense_to_stable,
                              const std::vector<bool>& byz_mask,
                              std::uint32_t max_phase, std::uint32_t d,
                              const ScheduleConfig& schedule,
                              const WarmConfig& warm_cfg, bool allow_skip) {
  EpsEntryPlan plan;
  obs::Span eps_span("warm.eps_entry");
  const std::size_t n = dense_to_stable.size();
  std::uint64_t honest = 0;
  for (std::size_t v = 0; v < n; ++v) {
    if (!byz_mask[v]) ++honest;
  }
  plan.budget_nodes = static_cast<std::uint64_t>(
      warm_cfg.eps_budget * static_cast<double>(honest));
  eps_span.arg("budget_nodes", plan.budget_nodes)
      .arg("allow_skip", allow_skip ? 1 : 0);
  if (!allow_skip) return plan;

  // Entry is the QUANTILE of the seeded estimate distribution, not its
  // minimum: a handful of poorly-connected nodes decide at phase 1-2 every
  // epoch (see the file comment), so "skip to seed_min" would never skip
  // anything. The tier pre-spends at most HALF the ε·n budget: entry is
  // the deepest phase such that the predicted at-risk population — nodes
  // seeded BELOW the entry, plus nodes with no seed at all (joiners,
  // previously undecided) — fits in budget/2, minus eps_margin phases of
  // safety for the epoch-to-epoch wobble of fresh colors. The other half
  // of the budget absorbs the realized wobble and the upward cascade from
  // skipped deciders still generating at the entry phase.
  std::vector<std::uint64_t> seeded_at(max_phase + 2, 0);
  std::uint64_t at_risk = 0;  // honest nodes with no usable seed
  for (std::size_t v = 0; v < n; ++v) {
    if (byz_mask[v]) continue;
    const NodeId s = dense_to_stable[v];
    const std::uint32_t est =
        s < state.estimate.size() ? state.estimate[s] : 0;
    if (est == 0) {
      ++at_risk;
    } else {
      ++seeded_at[std::min(est, max_phase + 1)];
    }
  }
  const std::uint64_t allowed = plan.budget_nodes / 2;
  std::uint32_t entry = 1;
  std::uint64_t below = at_risk;
  for (std::uint32_t p = 2; p <= max_phase; ++p) {
    below += seeded_at[p - 1];
    if (below > allowed) break;
    entry = p;
  }
  entry = entry > warm_cfg.eps_margin ? entry - warm_cfg.eps_margin : 1;
  if (entry > 1) {
    plan.eps_used = true;
    plan.entry_phase = entry;
    for (std::uint32_t i = 1; i < entry; ++i) {
      plan.skipped_subphases += subphases_in_phase(i, d, schedule);
    }
  }
  eps_span.arg("entry_phase", plan.entry_phase)
      .arg("skipped_subphases", plan.skipped_subphases);
  return plan;
}

WarmRun run_counting_warm(const graph::Overlay& overlay,
                          const std::vector<bool>& byz_mask,
                          adv::Strategy& strategy, const ProtocolConfig& cfg,
                          std::uint64_t color_seed,
                          std::span<const NodeId> dense_to_stable,
                          double drift, const WarmConfig& warm_cfg,
                          WarmState& state, obs::RunDigester* digester) {
  const NodeId n = overlay.num_nodes();
  if (dense_to_stable.size() != n) {
    throw std::invalid_argument("run_counting_warm: stable map size mismatch");
  }
  if (byz_mask.size() != n) {
    throw std::invalid_argument("run_counting_warm: mask size mismatch");
  }

  WarmRun out;

  // Cold-fallback decision: no state to seed from, or too much drift for
  // the cached state to be worth carrying.
  const bool cold = !state.has_run || drift > warm_cfg.max_drift;
  if (!cold) {
    // Report the seeded decision window (observability; E21 tables it).
    for (NodeId v = 0; v < n; ++v) {
      if (byz_mask[v]) continue;
      const NodeId s = dense_to_stable[v];
      if (s >= state.estimate.size() || state.estimate[s] == 0) continue;
      ++out.estimates_seeded;
      if (out.seed_min == 0 || state.estimate[s] < out.seed_min) {
        out.seed_min = state.estimate[s];
      }
      out.seed_max = std::max(out.seed_max, state.estimate[s]);
    }
  }

  out.warm_used = !cold;
  RunControls controls;
  controls.lazy_subphases = !cold;
  controls.digester = digester;
  controls.flood_threads = warm_cfg.flood_threads;
  // ε-warm phase skip (choose_eps_entry has the entry rule; cold fallbacks
  // and first-ever runs never skip but still report the budget).
  if (warm_cfg.eps_phase_skip) {
    const auto plan = choose_eps_entry(
        state, dense_to_stable, byz_mask, resolve_max_phase(overlay, cfg),
        overlay.params().d, cfg.schedule, warm_cfg, /*allow_skip=*/!cold);
    out.eps_budget_nodes = plan.budget_nodes;
    if (plan.eps_used) {
      out.eps_used = true;
      out.eps_entry_phase = plan.entry_phase;
      out.eps_skipped_subphases = plan.skipped_subphases;
      controls.start_phase = plan.entry_phase;
      if (digester != nullptr) {
        digester->note(obs::FlightEventKind::kEpsEntry, plan.entry_phase,
                       plan.skipped_subphases);
      }
    }
  }
  out.run = run_counting_with(overlay, byz_mask, strategy, cfg, color_seed,
                              controls);

  // Fold this run back into the stable-indexed state for the next epoch.
  const auto fold =
      fold_run_estimates(state, out.run, dense_to_stable, overlay.params().d);
  out.refine_reused = fold.reused;
  out.refine_recomputed = fold.recomputed;
  return out;
}

}  // namespace byz::proto
