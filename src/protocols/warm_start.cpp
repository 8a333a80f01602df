#include "protocols/warm_start.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "obs/digest.hpp"
#include "obs/metrics.hpp"
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

void invalidate_dirty_rows(WarmState& state,
                           std::span<const std::uint8_t> dirty_stable) {
  const std::size_t end =
      std::min(dirty_stable.size(), state.row_valid.size());
  for (std::size_t s = 0; s < end; ++s) {
    if (dirty_stable[s] != 0) state.row_valid[s] = 0;
  }
}

void fold_verifier_rows(WarmState& state, std::uint32_t k,
                        std::span<const NodeId> dense_to_stable,
                        std::span<const std::uint32_t> rows,
                        std::span<const std::uint8_t> chains) {
  const std::size_t n = dense_to_stable.size();
  if (rows.size() < n * k || chains.size() < n) {
    throw std::invalid_argument("fold_verifier_rows: table size mismatch");
  }
  const NodeId bound = stable_bound(dense_to_stable);
  if (state.chain_len.size() < bound) {
    state.chain_len.resize(bound, 0);
    state.row_valid.resize(bound, 0);
  }
  if (state.ball_counts.size() < static_cast<std::size_t>(bound) * k) {
    state.ball_counts.resize(static_cast<std::size_t>(bound) * k, 0);
  }
  state.k = k;
  for (std::size_t v = 0; v < n; ++v) {
    const NodeId s = dense_to_stable[v];
    std::copy_n(rows.data() + v * k, k,
                state.ball_counts.data() + static_cast<std::size_t>(s) * k);
    state.chain_len[s] = chains[v];
    state.row_valid[s] = 1;
  }
}

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
                          std::span<const std::uint8_t> dirty_stable,
                          double drift, const WarmConfig& warm_cfg,
                          WarmState& state, obs::RunDigester* digester) {
  const NodeId n = overlay.num_nodes();
  const std::uint32_t k = overlay.k();
  if (dense_to_stable.size() != n) {
    throw std::invalid_argument("run_counting_warm: stable map size mismatch");
  }
  if (byz_mask.size() != n) {
    throw std::invalid_argument("run_counting_warm: mask size mismatch");
  }

  WarmRun out;

  // Cold-fallback decision: no state to seed from, a k-regime change, or
  // too much drift for the cached state to be worth carrying.
  const bool cold =
      !state.has_run || state.k != k || drift > warm_cfg.max_drift;
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

  // The Verifier is built HERE on both paths so its per-node rows can be
  // cached into `state` afterwards. Cold: every row fresh. Warm: cached
  // rows for clean nodes (ball counts and usable chains are k-ball-local,
  // so a clean ball pins both), recomputed rows for dirty ones. Dirty rows
  // are dropped from the cache up front, so validity alone decides reuse.
  invalidate_dirty_rows(state, dirty_stable);
  static const obs::Counter obs_rows_reused("warm.rows_reused");
  static const obs::Counter obs_rows_recomputed("warm.rows_recomputed");
  std::vector<std::uint32_t> rows(static_cast<std::size_t>(n) * k);
  std::vector<std::uint8_t> chains(n);
  {
    obs::Span rows_span("warm.rows");
    // The row refresh runs on the flood's worker count: every v writes a
    // disjoint row slice and the reuse decision is per-node, so the table
    // — and via the reduction, the accounting — is identical at every
    // thread count.
    const int rows_nt = static_cast<int>(
        warm_cfg.flood_threads > 0
            ? warm_cfg.flood_threads
            : std::max(1u, std::thread::hardware_concurrency()));
    (void)rows_nt;
    std::uint64_t reused = 0;
    std::uint64_t recomputed = 0;
#pragma omp parallel for schedule(dynamic, 64) num_threads(rows_nt) \
    if (rows_nt > 1) reduction(+ : reused, recomputed)
    for (std::int64_t sv = 0; sv < static_cast<std::int64_t>(n); ++sv) {
      const auto v = static_cast<NodeId>(sv);
      const NodeId s = dense_to_stable[v];
      const bool reuse = !cold && s < state.row_valid.size() &&
                         state.row_valid[s] != 0;
      if (reuse) {
        std::copy_n(state.ball_counts.data() + static_cast<std::size_t>(s) * k,
                    k, rows.data() + static_cast<std::size_t>(v) * k);
        chains[v] = state.chain_len[s];
        ++reused;
      } else {
        verifier_ball_row(overlay, v,
                          rows.data() + static_cast<std::size_t>(v) * k);
        chains[v] = verifier_chain_len(overlay, byz_mask, v,
                                       cfg.verification.chain_model);
        ++recomputed;
      }
    }
    out.rows_reused = reused;
    out.rows_recomputed = recomputed;
    rows_span.arg("reused", out.rows_reused)
        .arg("recomputed", out.rows_recomputed);
    obs_rows_reused.add(out.rows_reused);
    obs_rows_recomputed.add(out.rows_recomputed);
  }
  fold_verifier_rows(state, k, dense_to_stable, rows, chains);
  const Verifier verifier(overlay, byz_mask, cfg.verification, std::move(rows),
                          std::move(chains));

  out.warm_used = !cold;
  RunControls controls;
  controls.lazy_subphases = !cold;
  controls.verifier = &verifier;
  controls.digester = digester;
  controls.flood_threads = warm_cfg.flood_threads;
  if (digester != nullptr) {
    digester->note(obs::FlightEventKind::kWarmRowReuse, out.rows_reused,
                   out.rows_recomputed);
  }
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

  // Fold this run back into the stable-indexed state for the next epoch
  // (the verifier rows were folded above, before the tables moved).
  const auto fold =
      fold_run_estimates(state, out.run, dense_to_stable, overlay.params().d);
  out.refine_reused = fold.reused;
  out.refine_recomputed = fold.recomputed;
  return out;
}

}  // namespace byz::proto
