#include "protocols/fastpath.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "obs/digest.hpp"
#include "obs/trace.hpp"
#include "protocols/color.hpp"
#include "protocols/flooding.hpp"
#include "protocols/neighborhood.hpp"
#include "sim/world.hpp"
#include "util/log.hpp"

namespace byz::proto {

using graph::NodeId;

std::uint32_t resolve_max_phase(const graph::Overlay& overlay,
                                const ProtocolConfig& cfg) {
  if (cfg.max_phase != 0) return cfg.max_phase;
  const double n = overlay.num_nodes();
  const double d = overlay.params().d;
  return static_cast<std::uint32_t>(
             std::ceil(4.0 * std::log2(n) / std::log2(d - 1.0))) +
         8;
}

RunResult run_counting(const graph::Overlay& overlay,
                       const std::vector<bool>& byz_mask,
                       adv::Strategy& strategy, const ProtocolConfig& cfg,
                       std::uint64_t color_seed) {
  return run_counting_with(overlay, byz_mask, strategy, cfg, color_seed, {});
}

RunResult run_counting_with(const graph::Overlay& overlay,
                            const std::vector<bool>& byz_mask,
                            adv::Strategy& strategy, const ProtocolConfig& cfg,
                            std::uint64_t color_seed,
                            const RunControls& controls) {
  const NodeId n = overlay.num_nodes();
  MidRunHooks* const midrun = controls.midrun;
  // The run's id space: the snapshot's nodes plus, under mid-run churn,
  // every joiner the round schedule will ever admit (inert until then).
  const NodeId nb = midrun ? midrun->node_bound() : n;
  if (nb < n || byz_mask.size() != nb) {
    throw std::invalid_argument("run_counting: mask size mismatch");
  }
  const std::uint32_t d = overlay.params().d;

  // Observability spans (pure read-side; see src/obs/obs.hpp). The run
  // span encloses setup and every phase; phase/subphase spans nest inside
  // it, and the flood kernel adds flood.subphase/flood.round below them.
  obs::Span run_span("count.run");
  run_span.arg("n", n);

  RunResult result;
  result.status.assign(nb, NodeStatus::kUndecided);
  result.estimate.assign(nb, 0);

  const sim::World world = sim::World::make(overlay, byz_mask, color_seed);
  for (const NodeId b : world.byz_nodes) {
    result.status[b] = NodeStatus::kByzantine;
  }
  // Scheduled sybil joiners (ids past the snapshot) are Byzantine from the
  // start for bookkeeping; the World above only spans the snapshot, so the
  // strategy never plans injections from them this run.
  for (NodeId v = n; v < nb; ++v) {
    if (byz_mask[v]) result.status[v] = NodeStatus::kByzantine;
  }

  // Setup: adjacency exchange, lies, crash rule (Algorithm 2 lines 1-2).
  // The lies and the crash rule read G's degree table and the liars'
  // balls, not G. Mid-run joiners skip setup: they were not present for
  // the adjacency exchange, so the crash rule never applies to them.
  std::vector<bool> crashed(nb, false);
  {
    obs::Span setup_span("count.setup");
    proto::ClaimSet claims(overlay);
    strategy.setup_lies(world, claims);
    if (cfg.crash_rule) {
      if (midrun == nullptr) {
        // A static overlay is smoothed over or shared by other trials
        // next, and they read all of G: build it here, so the degree
        // table comes off its rows rather than a count pass of its own. A
        // live run (every churn epoch, snapshot churn included) runs on a
        // snapshot dropped after its epoch and never builds G.
        (void)overlay.g();
        crashed = compute_crash_set(claims, byz_mask, &result.instr);
      } else {
        // The crash rule runs on the snapshot's members only; joiner ids
        // are truncated off the mask (they exchanged no adjacency claims).
        const std::vector<bool> snapshot_byz(byz_mask.begin(),
                                             byz_mask.begin() + n);
        crashed = compute_crash_set(claims, snapshot_byz, &result.instr);
      }
      crashed.resize(nb, false);
      for (NodeId v = 0; v < n; ++v) {
        if (crashed[v] && !byz_mask[v]) {
          result.status[v] = NodeStatus::kCrashed;
        }
      }
    }
    NodeId liars = 0;
    for (NodeId v = 0; v < n; ++v) liars += claims.truthful(v) ? 0 : 1;
    setup_span.arg("liars", liars).arg("crashes", result.instr.crashes);
  }

  // Static runs view the overlay's ball counts; under mid-run churn
  // begin_phase hands out the feed's Verifier instead.
  const Verifier* verifier = nullptr;
  std::optional<Verifier> owned_verifier;
  if (midrun == nullptr) {
    owned_verifier.emplace(overlay, byz_mask, cfg.verification);
    verifier = &*owned_verifier;
  }
  const std::uint32_t max_phase = resolve_max_phase(overlay, cfg);
  const bool byz_gen = strategy.generates_honestly();

  // active = honest, uncrashed, undecided (still generates tokens). Under
  // mid-run churn, joiners enter this set only when a phase boundary
  // admits them (kReadmitNextPhase); `participates` gates generation for
  // both honest and Byzantine joiners until then.
  std::vector<bool> active(nb, false);
  std::uint64_t active_count = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (!byz_mask[v] && !crashed[v]) {
      active[v] = true;
      ++active_count;
    }
  }
  std::vector<std::uint8_t> participates;
  std::vector<NodeId> admitted;
  if (midrun != nullptr) {
    participates.assign(nb, 0);
    std::fill(participates.begin(), participates.begin() + n, 1);
  }

  FloodWorkspace ws;
  std::vector<Injection> injections;
  std::vector<std::uint32_t> lane_begin;
  std::vector<bool> fired(nb, false);
  // Global flood-round counter driving the mid-run churn schedule.
  std::uint64_t global_round = 0;
  // A run floods up to kMaxFloodLanes subphases of a phase in one kernel
  // call, unless its hooks churn: then its membership changes between the
  // rounds of successive subphases, and it floods one at a time.
  const std::uint32_t pass_cap =
      midrun == nullptr || !midrun->churns() ? kMaxFloodLanes : 1;

  obs::RunDigester* const dg = controls.digester;
  std::uint32_t phase = 0;
  while (phase < max_phase && active_count > 0) {
    ++phase;
    obs::Span phase_span("count.phase");
    phase_span.arg("phase", phase).arg("active_in", active_count);
    if (midrun != nullptr) {
      // Phase boundary: the membership policy admits pending joiners (they
      // start generating this phase) and hands back the Verifier the
      // phase's floods must use (refreshed under kReadmitNextPhase).
      verifier = admit_at_phase_boundary(*midrun, phase, byz_mask, crashed,
                                         result.status, participates, active,
                                         active_count, admitted);
    }
    if (dg != nullptr) {
      dg->begin_phase(phase);
      dg->note(obs::FlightEventKind::kPhaseBegin, active_count,
               admitted.size());
      digest_phase_state(*dg, *verifier, result.status, result.estimate, nb);
    }
    const std::uint32_t subphases = subphases_in_phase(phase, d, cfg.schedule);
    std::fill(fired.begin(), fired.end(), false);
    const double threshold = continue_threshold(phase, d);
    result.subphases_scheduled += subphases;

    for (std::uint32_t first = 1; first <= subphases; first += pass_cap) {
      // Lane l floods subphase j = first + l.
      const std::uint32_t lanes = std::min(pass_cap, subphases - first + 1);
      std::array<std::uint32_t, kMaxFloodLanes> coin_index{};
      for (std::uint32_t l = 0; l < lanes; ++l) {
        coin_index[l] =
            global_subphase_index(phase, first + l, d, cfg.schedule);
      }
      // Colors, drawn straight into the lane rows: active honest nodes
      // generate; decided/crashed do not; Byzantine nodes generate their
      // honest draw only if the strategy mimics the protocol. Mid-run
      // joiners generate only once admitted.
      ws.ensure(nb, lanes);
      for (NodeId v = 0; v < nb; ++v) {
        if (!(active[v] || (byz_mask[v] && byz_gen)) ||
            (midrun != nullptr && participates[v] == 0)) {
          continue;
        }
        const std::uint64_t node_seed = node_color_seed(color_seed, v);
        Color* row = ws.known.data() + ws.at(v, 0);
        for (std::uint32_t l = 0; l < lanes; ++l) {
          row[l] = color_at_node(node_seed, coin_index[l]);
        }
      }
      // A plan depends only on the World and the subphase, so the pass's
      // plans are drawn before its flood.
      injections.clear();
      lane_begin.assign(1, 0);
      for (std::uint32_t l = 0; l < lanes; ++l) {
        strategy.plan_subphase(world, {phase, first + l, coin_index[l]},
                               injections);
        lane_begin.push_back(static_cast<std::uint32_t>(injections.size()));
      }

      FloodParams params;
      params.steps = phase;
      params.byz_forward = strategy.forwards_floods();
      if (midrun != nullptr) {
        params.live = midrun;
        params.clock = {phase, first, 1, global_round};
      }
      if (dg != nullptr) {
        // One lane closes its rounds into the open subphase as they end.
        if (lanes == 1) dg->begin_subphase(first);
        params.digest = dg;
      }
      run_flood_lanes(overlay, byz_mask, crashed, *verifier, params,
                      injections, lane_begin, ws, result.instr);
      global_round += std::uint64_t{phase} * lanes;
      result.subphases_executed += lanes;

      // Each subphase's bookkeeping, in subphase order.
      for (std::uint32_t l = 0; l < lanes; ++l) {
        const std::uint32_t j = first + l;
        obs::Span sub_span("count.subphase");
        sub_span.arg("phase", phase).arg("j", j);
        if (dg != nullptr && lanes > 1) {
          dg->begin_subphase(j);
          replay_lane_rounds(ws, l, *dg);
        }
        // Line 18: the phase "continues" for v if the final-step max
        // strictly beats every earlier step AND clears the threshold, in
        // ANY subphase.
        std::uint64_t unfired = 0;
        for (NodeId v = 0; v < nb; ++v) {
          if (!active[v] || fired[v]) continue;
          const Color ki = ws.last_step[ws.at(v, l)];
          if (ki > ws.best_before[ws.at(v, l)] &&
              static_cast<double>(ki) > threshold) {
            fired[v] = true;
          } else {
            ++unfired;
          }
        }
        sub_span.arg("unfired", unfired);
        if (dg != nullptr) {
          for (NodeId v = 0; v < nb; ++v) {
            if (fired[v]) dg->fold_subphase(obs::digest_state_term(v, 1));
          }
          dg->close_subphase();
        }
      }
    }

    // Mid-run churn: nodes that left the overlay during this phase are no
    // longer members — they take no estimate and leave the active set
    // before the decide sweep reads the fired flags.
    if (midrun != nullptr) {
      sweep_departed(*midrun, active, active_count, result, dg);
    }

    // Nodes with FlagTerminate still set accept i as the estimate of log n.
    std::uint64_t decided_now = 0;
    {
      obs::Span decide_span("count.decide");
      for (NodeId v = 0; v < nb; ++v) {
        if (active[v] && !fired[v]) {
          active[v] = false;
          --active_count;
          result.status[v] = NodeStatus::kDecided;
          result.estimate[v] = phase;
          ++decided_now;
          if (dg != nullptr) dg->fold_phase(obs::digest_state_term(v, phase));
        }
      }
      if (dg != nullptr) {
        dg->fold_phase(obs::mix2(decided_now, active_count));
        dg->close_phase();
      }
    }
    BYZ_TRACE << "phase " << phase << ": " << subphases << " subphases, "
              << decided_now << " nodes decided (estimate=" << phase << "), "
              << active_count << " still active";
    phase_span.arg("decided", decided_now).arg("active_out", active_count);
  }
  result.phases_executed = phase;
  result.flood_rounds = result.instr.flood_rounds;
  if (dg != nullptr) {
    fold_run_outcome(*dg, result, nb);
  }
  run_span.arg("phases", phase).arg("rounds", result.instr.flood_rounds);
  return result;
}

RunResult run_basic_counting(const graph::Overlay& overlay,
                             std::uint64_t color_seed, ScheduleConfig sched) {
  std::vector<bool> byz(overlay.num_nodes(), false);
  auto strategy = adv::make_strategy(adv::StrategyKind::kHonest);
  return run_counting(overlay, byz, *strategy, basic_config(sched), color_seed);
}

}  // namespace byz::proto
