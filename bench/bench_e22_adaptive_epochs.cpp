// E22 — drift-adaptive vs fixed-cadence re-estimation: a deployment that
// re-runs the protocol every epoch pays full flood cost even when almost
// nothing changed; one that waits for accumulated membership drift to
// cross a bound spends estimates where the drift is. The scenario compares
// the two policies on identical churn traces: protocol invocations,
// messages, estimates-per-unit-drift, and what coasting costs — the stale
// in-band fraction on the epochs the adaptive scheduler skipped.
#include "bench_common.hpp"

namespace {

using namespace byz;
using namespace byz::bench;

struct Policy {
  const char* name;
  bool adaptive;
  double threshold;
};

void run_e22(RunContext& ctx) {
  const auto sizes = analysis::pow2_sizes(10, ctx.max_exp(11));
  const auto t = ctx.trials(3);
  constexpr std::uint32_t kEpochs = 12;
  const Policy policies[] = {
      {"fixed", false, 0.0},
      {"adaptive 5%", true, 0.05},
      {"adaptive 10%", true, 0.10},
  };

  util::Table table("E22: adaptive vs fixed re-estimation cadence, d=6 (" +
                    std::to_string(t) + " trials, " + std::to_string(kEpochs) +
                    " epochs, ~3% drift/epoch)");
  table.columns({"n0", "policy", "estimates", "msgs", "est/drift",
                 "fresh in-band", "stale in-band (skipped)"});
  std::vector<double> skipped_band;
  for (const auto n0 : sizes) {
    for (const auto& policy : policies) {
      dynamics::ChurnRunConfig cfg;
      cfg.trace.n0 = n0;
      cfg.trace.epochs = kEpochs;
      cfg.trace.arrival_rate = n0 / 64.0;
      cfg.trace.departure_rate = n0 / 64.0;
      cfg.trace.min_n = n0 / 2;
      cfg.d = 6;
      cfg.delta = 0.7;
      cfg.strategy = adv::StrategyKind::kFakeColor;
      cfg.incremental.adaptive = policy.adaptive;
      cfg.incremental.drift_threshold = policy.threshold;

      const std::uint64_t base_seed = 0xE22 + n0;
      const auto runs = ctx.scheduler().map(t, [&](std::uint64_t i) {
        auto trial_cfg = cfg;
        trial_cfg.trace.seed =
            bench_core::TrialScheduler::trial_seed(base_seed, i);
        trial_cfg.seed = trial_cfg.trace.seed;
        return dynamics::run_churn(trial_cfg);
      });

      std::uint64_t estimates = 0, epochs_total = 0, msgs = 0;
      double drift_total = 0.0;
      util::OnlineStats fresh, stale_skipped;
      for (const auto& run : runs) {
        for (std::uint32_t e = 0; e < run.epochs.size(); ++e) {
          const auto& ep = run.epochs[e];
          ++epochs_total;
          msgs += ep.messages;
          const auto& trace_epoch = run.trace.epochs[e];
          drift_total += static_cast<double>(
                             trace_epoch.joins + trace_epoch.sybil_joins +
                             trace_epoch.leaves) /
                         static_cast<double>(ep.n_true);
          if (ep.estimated) {
            ++estimates;
            fresh.add(ep.fresh.frac_in_band);
          } else if (ep.stale_nodes > 0) {
            stale_skipped.add(ep.stale_frac_in_band);
            skipped_band.push_back(ep.stale_frac_in_band);
          }
        }
      }
      table.row()
          .cell(std::uint64_t{n0})
          .cell(policy.name)
          .cell(std::to_string(estimates) + "/" +
                std::to_string(epochs_total))
          .cell(static_cast<double>(msgs), 0)
          .cell(drift_total > 0.0
                    ? static_cast<double>(estimates) / drift_total
                    : 0.0,
                1)
          .cell(fresh.mean(), 4)
          .cell(stale_skipped.count() == 0
                    ? std::string("-")
                    : util::format_double(stale_skipped.mean(), 4));

      Json j = Json::object();
      j["estimates"] = estimates;
      j["epochs"] = epochs_total;
      j["messages"] = msgs;
      j["estimates_per_unit_drift"] =
          drift_total > 0.0 ? static_cast<double>(estimates) / drift_total
                            : 0.0;
      j["stale_in_band_skipped"] =
          stale_skipped.count() ? stale_skipped.mean() : 1.0;
      ctx.metric("policy_n" + std::to_string(n0) + "_" +
                     std::string(policy.adaptive
                                     ? "adaptive" +
                                           std::to_string(static_cast<int>(
                                               policy.threshold * 100))
                                     : "fixed"),
                 std::move(j));
    }
  }
  table.note("Same traces, different cadence. The adaptive scheduler "
             "re-estimates when accumulated drift crosses the bound, so it "
             "spends a constant number of estimates per unit drift instead "
             "of per unit time; the price is the stale column — how far "
             "out of band the carried estimates fall on skipped epochs "
             "(small, because Theorem-1 estimates are log-scale and drift "
             "below the bound barely moves log n).");
  ctx.emit(table);
  ctx.record_accuracy("stale_in_band_skipped", skipped_band);
}

}  // namespace

BYZBENCH_REGISTER(e22) {
  ScenarioSpec spec;
  spec.id = "e22";
  spec.title = "Drift-adaptive re-estimation cadence vs fixed";
  spec.claim = "Adaptive epochs: re-estimating on drift (not time) cuts "
               "protocol invocations and messages at near-constant "
               "estimates-per-unit-drift, with bounded staleness on "
               "skipped epochs";
  spec.grid = {{"policy", {"fixed", "adaptive-5", "adaptive-10"}},
               {"epochs", {"12"}},
               pow2_axis(10, 11)};
  spec.base_trials = 3;
  spec.metrics = {"policy_n<k>_<policy>.estimates_per_unit_drift",
                  "accuracy.stale_in_band_skipped"};
  spec.run = run_e22;
  return spec;
}
