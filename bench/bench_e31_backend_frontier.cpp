// E31 — the cross-backend accuracy/rounds/messages frontier: the same
// overlays, Byzantine placements, and coin seeds run through every
// registered counting backend, so the table is a like-for-like trade
// curve, not three separate experiments. Algorithm 2 buys its band with
// verification traffic and a crash rule; BRC buys Byzantine resilience
// with a commitment filter and median voting instead — zero verify
// messages, more flood rounds (doubling-depth batches repeat the deep
// floods Algorithm 2 runs once). Algorithm 1 rides along on honest rows
// as the no-defense baseline. A second section replays the E27
// adversarial MID-RUN schedules through both mid-run-capable backends at
// matched event budgets — the identical schedule, round for round — so
// the frontier also covers worst-case churn TIMING, not just static
// instances. Each backend is judged against its OWN declared
// EstimatorBound; the guard counts own-bound violations, and the scenario
// fails when either count is nonzero (the pairwise agreement oracle is
// E32's job).
#include <string_view>
#include <utility>

#include "bench_common.hpp"

namespace {

using namespace byz;
using namespace byz::bench;

struct CellStats {
  util::OnlineStats in_band;  ///< own-band frac_in_band per run
  util::OnlineStats ratio;    ///< median est / log2(n) per run
  util::OnlineStats rounds;
  util::OnlineStats messages;
  util::OnlineStats verify;
  std::uint64_t violations = 0;  ///< runs failing their own bound
};

void add_outcome(CellStats& cell, const analysis::BackendOutcome& out) {
  cell.in_band.add(out.accuracy.frac_in_band);
  cell.ratio.add(out.median_ratio);
  cell.rounds.add(static_cast<double>(out.rounds));
  cell.messages.add(static_cast<double>(out.messages));
  if (!out.in_band) ++cell.violations;
}

void run_e31(RunContext& ctx) {
  const auto sizes = analysis::pow2_sizes(10, ctx.max_exp(12));
  const auto t = ctx.trials(3);
  const adv::StrategyKind strategies[] = {adv::StrategyKind::kHonest,
                                          adv::StrategyKind::kFakeColor,
                                          adv::StrategyKind::kSuppress};
  // algo1 has no verification/crash machinery, so its declared band only
  // binds on honest instances — it is the undefended baseline row.
  const struct {
    const char* name;
    bool adversarial_rows;
  } backends[] = {{"algo2", true}, {"brc", true}, {"algo1", false}};
  const auto instance_seed = [](graph::NodeId n, adv::StrategyKind strategy,
                                std::uint64_t i) {
    const std::uint64_t base_seed =
        0xE31 + n * 8 + static_cast<std::uint64_t>(strategy);
    return bench_core::TrialScheduler::trial_seed(base_seed, i);
  };
  // Every backend runs the same (size, strategy, trial) instances, so
  // their overlays are built once, up front — the last one is the overlay
  // section B reads its declared bounds from.
  const graph::NodeId n0 = 1u << 10;
  const std::uint64_t per_size = std::size(strategies) * t;
  const auto overlays = ctx.scheduler().map(
      sizes.size() * per_size + 1, [&](std::uint64_t u) {
        if (u == sizes.size() * per_size) {
          return graph::Overlay::build({.n = n0, .d = 6, .seed = 0xB0D});
        }
        const auto n = sizes[u / per_size];
        const auto strategy = strategies[u % per_size / t];
        return graph::Overlay::build(
            {.n = n, .d = 6, .seed = instance_seed(n, strategy, u % t)});
      });

  util::Table table("E31: backend frontier at matched instances, d=6, "
                    "delta=0.7 (" +
                    std::to_string(t) + " trials per cell)");
  table.columns({"n", "backend", "strategy", "own-band frac", "med est/log2n",
                 "rounds", "messages", "verify msgs", "violations"});
  std::uint64_t own_violations = 0;
  std::uint64_t cells = 0;
  double brc_msg_ratio = 0.0;
  double brc_round_ratio = 0.0;
  for (std::size_t s = 0; s < sizes.size(); ++s) {
    const auto n = sizes[s];
    double algo2_msgs = 0.0, algo2_rounds = 0.0;
    for (const auto& backend : backends) {
      const auto est = proto::make_estimator(backend.name);
      for (std::size_t st = 0; st < std::size(strategies); ++st) {
        const auto strategy = strategies[st];
        if (strategy != adv::StrategyKind::kHonest &&
            !backend.adversarial_rows) {
          continue;
        }
        const auto outcomes = ctx.scheduler().map(t, [&](std::uint64_t i) {
          const auto seed = instance_seed(n, strategy, i);
          const auto& overlay = overlays[s * per_size + st * t + i];
          const auto byz = place_byz(n, 0.7, seed);
          auto adversary = adv::make_strategy(strategy);
          const auto run = est->run(overlay, byz, *adversary, seed);
          auto out = analysis::judge_backend(*est, overlay, run);
          out.messages = run.instr.total_messages();
          return std::pair{out, run.instr.verify_messages};
        });
        CellStats cell;
        std::uint64_t verify_msgs = 0;
        for (const auto& [out, verify] : outcomes) {
          add_outcome(cell, out);
          verify_msgs += verify;
          cell.verify.add(static_cast<double>(verify));
        }
        ++cells;
        own_violations += cell.violations;
        table.row()
            .cell(std::uint64_t{n})
            .cell(backend.name)
            .cell(adv::to_string(strategy))
            .cell(cell.in_band.mean(), 4)
            .cell(cell.ratio.mean(), 3)
            .cell(cell.rounds.mean(), 1)
            .cell(cell.messages.mean(), 0)
            .cell(cell.verify.mean(), 0)
            .cell(cell.violations);
        Json j = Json::object();
        j["in_band"] = cell.in_band.mean();
        j["median_ratio"] = cell.ratio.mean();
        j["rounds"] = cell.rounds.mean();
        j["messages"] = cell.messages.mean();
        j["verify_messages"] = cell.verify.mean();
        j["violations"] = cell.violations;
        ctx.metric("frontier_" + std::string(backend.name) + "_" +
                       adv::to_string(strategy) + "_n" + std::to_string(n),
                   std::move(j));
        // Perf-trajectory cell: the BRC/algo2 cost ratios under attack at
        // the largest size — the price of verification-free resilience.
        if (strategy == adv::StrategyKind::kFakeColor) {
          if (std::string_view(backend.name) == "algo2") {
            algo2_msgs = cell.messages.mean();
            algo2_rounds = cell.rounds.mean();
          } else if (std::string_view(backend.name) == "brc" &&
                     n == sizes.back() && algo2_msgs > 0.0) {
            brc_msg_ratio = cell.messages.mean() / algo2_msgs;
            brc_round_ratio = cell.rounds.mean() / algo2_rounds;
          }
        }
      }
    }
  }
  table.note("Every cell of a row block shares overlays, Byzantine "
             "placements, and color seeds — only the backend varies. "
             "'own-band frac' judges each run against that backend's OWN "
             "declared EstimatorBound (algo2 eps=0.15, brc eps=0.08); "
             "'violations' counts runs whose in-band fraction or median "
             "ratio broke it. BRC's verify column is structurally zero — "
             "its commitment filter replaces witness interrogation — and "
             "its round count is higher by design: doubling-depth batches "
             "re-flood the deep horizons Algorithm 2 visits once.");
  ctx.emit(table);

  // ---- Section B: adversarial mid-run schedules across backends --------
  // The E27 worst-case TIMING attack, replayed through the backend seam:
  // both mid-run-capable backends consume the IDENTICAL adversarial
  // schedule (same epoch budget, same event rounds, same victim policy),
  // so the accuracy deltas isolate how each algorithm absorbs churn struck
  // at its flood wavefront / admission boundaries.
  const auto mt = ctx.trials(3);
  const auto schedules = adv::all_midrun_schedule_strategies();
  const char* midrun_backends[] = {"algo2", "brc"};
  util::Table mtable("E31b: adversarial mid-run schedules across backends "
                     "(n0=" +
                     std::to_string(n0) + ", d=6, " + std::to_string(mt) +
                     " trials, matched event budgets)");
  mtable.columns({"backend", "schedule", "own-band frac", "med est/log2n",
                  "applied", "frontier hits", "violations"});
  std::uint64_t midrun_violations = 0;
  for (const auto* backend_name : midrun_backends) {
    proto::ProtocolConfig pcfg;
    const bool is_brc = std::string_view(backend_name) == "brc";
    if (is_brc) {
      // BRC runs no verification traffic; a disabled-verification config
      // keeps the live feed from billing verifier rebuilds it never uses
      // (MidRunConfig::backend contract).
      pcfg.verification.enabled = false;
    }
    const auto est = proto::make_estimator(backend_name, pcfg);
    // The declared band depends only on (n, d) — evaluate it once against
    // a representative overlay instead of per trial.
    const auto bound = est->bound(overlays.back());
    for (const auto schedule : schedules) {
      const std::uint64_t base_seed =
          0xE31B + static_cast<std::uint64_t>(schedule) * 131;
      const auto outcomes = ctx.scheduler().map(mt, [&](std::uint64_t i) {
        const auto seed = bench_core::TrialScheduler::trial_seed(base_seed, i);
        dynamics::MutableOverlay overlay(n0, 6, 0, seed);
        util::Xoshiro256 place_rng(util::mix_seed(seed, 0x0B12));
        std::vector<bool> byz = graph::random_byzantine_mask(
            n0, sim::derive_byz_count(n0, 0.7), place_rng);

        // One epoch's budget, spent by the adversarial scheduler over the
        // ALGORITHM-2 expected horizon for both backends: the event stream
        // is then identical round for round, so the comparison is a
        // matched-budget, matched-timing one (BRC's longer run simply sees
        // the same events early).
        dynamics::ChurnEpoch epoch;
        epoch.joins = 12;
        epoch.sybil_joins = 4;
        epoch.leaves = 16;
        epoch.n_after = n0;
        const auto horizon =
            dynamics::expected_horizon_rounds(n0, 6, pcfg.schedule);
        const auto churn_schedule = adv::derive_adversarial_schedule(
            epoch, horizon, util::mix_seed(seed, 0x31D1), schedule, 6,
            pcfg.schedule);

        dynamics::MidRunConfig mid_cfg;
        mid_cfg.policy = proto::MembershipPolicy::kReadmitNextPhase;
        mid_cfg.schedule_strategy = schedule;
        if (is_brc) mid_cfg.backend = est.get();
        util::Xoshiro256 churn_rng(util::mix_seed(seed, 0xC002));
        auto adversary = adv::make_strategy(adv::StrategyKind::kFakeColor);
        const auto got = dynamics::run_counting_midrun(
            overlay, byz, *adversary, pcfg, seed, churn_schedule, mid_cfg,
            adv::ChurnAdversary::kNone, churn_rng);
        const auto acc =
            proto::summarize_accuracy(got.run, n0, bound.lo, bound.hi);
        const double med = proto::median_decided_estimate(got.run) /
                           std::log2(static_cast<double>(n0));
        const bool ok = acc.decided > 0 &&
                        acc.frac_in_band >= 1.0 - bound.eps && med >= bound.lo &&
                        med <= bound.hi;
        struct Row {
          double in_band;
          double med;
          std::uint64_t applied;
          std::uint64_t frontier;
          bool ok;
        };
        return Row{acc.frac_in_band, med, got.stats.events_applied,
                   got.stats.frontier_leaves, ok};
      });
      util::OnlineStats in_band, med;
      std::uint64_t applied = 0, frontier = 0, violations = 0;
      for (const auto& r : outcomes) {
        in_band.add(r.in_band);
        med.add(r.med);
        applied += r.applied;
        frontier += r.frontier;
        if (!r.ok) ++violations;
      }
      midrun_violations += violations;
      mtable.row()
          .cell(backend_name)
          .cell(adv::to_string(schedule))
          .cell(in_band.mean(), 4)
          .cell(med.mean(), 3)
          .cell(applied)
          .cell(frontier)
          .cell(violations);
      Json j = Json::object();
      j["in_band"] = in_band.mean();
      j["median_ratio"] = med.mean();
      j["events_applied"] = applied;
      j["frontier_leaves"] = frontier;
      j["violations"] = violations;
      ctx.metric("midrun_" + std::string(backend_name) + "_" +
                     adv::to_string(schedule),
                 std::move(j));
    }
  }
  mtable.note("Both backends replay the IDENTICAL adversarial schedule "
              "(same trace budget, same event rounds, derived over the "
              "Algorithm-2 horizon) through the same LiveOverlayFeed under "
              "readmit-next-phase; BRC enters through "
              "MidRunConfig::backend with verification disabled. "
              "frontier-leaves victims are chosen on each backend's OWN "
              "observed wavefront, so 'frontier hits' may differ — the "
              "budget, not the victim identity, is what is matched.");
  ctx.emit(mtable);

  Json guard = Json::object();
  guard["cells"] = cells;
  guard["own_bound_violations"] = own_violations;
  guard["midrun_violations"] = midrun_violations;
  guard["brc_msg_ratio"] = brc_msg_ratio;
  guard["brc_round_ratio"] = brc_round_ratio;
  ctx.metric("guard", std::move(guard));
  if (own_violations != 0) {
    throw std::runtime_error(std::to_string(own_violations) +
                             " frontier cells broke their backend's "
                             "declared bound");
  }
  if (midrun_violations != 0) {
    throw std::runtime_error(std::to_string(midrun_violations) +
                             " mid-run backend runs broke their declared "
                             "bound under adversarial schedules");
  }
}

}  // namespace

BYZBENCH_REGISTER(e31) {
  ScenarioSpec spec;
  spec.id = "e31";
  spec.title = "Cross-backend accuracy/rounds/messages frontier";
  spec.claim = "On identical instances — static and under adversarial "
               "mid-run schedules at matched budgets — every backend honors "
               "its own declared accuracy bound; BRC trades verification "
               "traffic (zero verify messages) for deeper repeated floods";
  spec.grid = {{"backend", {"algo2", "brc", "algo1(honest)"}},
               {"strategy", {"honest", "fake-color", "suppress"}},
               {"midrun_schedule",
                {"uniform", "frontier-leaves", "boundary-join-storm"}},
               pow2_axis(10, 12)};
  spec.base_trials = 3;
  spec.metrics = {"guard.own_bound_violations", "guard.midrun_violations",
                  "guard.brc_msg_ratio"};
  spec.run = run_e31;
  return spec;
}
