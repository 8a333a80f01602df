// E21 — warm-vs-cold parity: on every epoch snapshot the warm-started
// protocol (lazy subphase evaluation seeded by the previous epoch's
// estimates) must produce EXACTLY the cold run's decisions — run_churn's
// verify_warm mode shadow-runs the cold tier and throws on the first
// divergence, so every row of this table is an asserted identity. What the
// warm tier buys is accounting: the message column pair shows the flood
// traffic the lazy tier avoids.
#include "bench_common.hpp"

namespace {

using namespace byz;
using namespace byz::bench;

void run_e21(RunContext& ctx) {
  const auto sizes = analysis::pow2_sizes(10, ctx.max_exp(11));
  const auto t = ctx.trials(3);
  constexpr std::uint32_t kEpochs = 8;

  util::Table table("E21: warm-start parity and savings, d=6 (" +
                    std::to_string(t) + " trials, " + std::to_string(kEpochs) +
                    " epochs, decisions asserted identical)");
  table.columns({"n0", "warm epochs", "msgs warm", "msgs cold", "msg saved",
                 "subph saved", "fresh in-band"});
  std::vector<double> fresh_band;
  std::vector<double> savings;
  for (const auto n0 : sizes) {
    dynamics::ChurnRunConfig cfg;
    cfg.trace.n0 = n0;
    cfg.trace.epochs = kEpochs;
    cfg.trace.arrival_rate = n0 / 128.0;
    cfg.trace.departure_rate = n0 / 128.0;
    cfg.trace.min_n = n0 / 2;
    cfg.d = 6;
    cfg.delta = 0.7;
    cfg.strategy = adv::StrategyKind::kFakeColor;
    cfg.incremental.incremental = true;
    cfg.incremental.warm_start = true;
    cfg.incremental.verify_warm = true;  // cold shadow + assertion

    const std::uint64_t base_seed = 0xE21 + n0;
    const auto runs = ctx.scheduler().map(t, [&](std::uint64_t i) {
      auto trial_cfg = cfg;
      trial_cfg.trace.seed =
          bench_core::TrialScheduler::trial_seed(base_seed, i);
      trial_cfg.seed = trial_cfg.trace.seed;
      return dynamics::run_churn(trial_cfg);
    });

    std::uint64_t warm_epochs = 0, total_epochs = 0;
    std::uint64_t msgs = 0, msgs_cold = 0;
    std::uint64_t sp_run = 0, sp_sched = 0;
    util::OnlineStats fresh;
    for (const auto& run : runs) {
      for (const auto& ep : run.epochs) {
        ++total_epochs;
        if (ep.warm_used) ++warm_epochs;
        msgs += ep.messages;
        msgs_cold += ep.messages_cold;
        sp_run += ep.subphases_executed;
        sp_sched += ep.subphases_scheduled;
        fresh.add(ep.fresh.frac_in_band);
        fresh_band.push_back(ep.fresh.frac_in_band);
      }
    }
    const double msg_saved =
        msgs_cold ? 1.0 - static_cast<double>(msgs) /
                              static_cast<double>(msgs_cold)
                  : 0.0;
    const double sp_saved =
        sp_sched ? 1.0 - static_cast<double>(sp_run) /
                             static_cast<double>(sp_sched)
                 : 0.0;
    savings.push_back(msg_saved);
    table.row()
        .cell(std::uint64_t{n0})
        .cell(std::to_string(warm_epochs) + "/" + std::to_string(total_epochs))
        .cell(static_cast<double>(msgs), 0)
        .cell(static_cast<double>(msgs_cold), 0)
        .cell(util::format_double(100.0 * msg_saved, 1) + "%")
        .cell(util::format_double(100.0 * sp_saved, 1) + "%")
        .cell(fresh.mean(), 4);

    Json j = Json::object();
    j["warm_epochs"] = warm_epochs;
    j["total_epochs"] = total_epochs;
    j["msg_savings"] = msg_saved;
    j["subphase_savings"] = sp_saved;
    ctx.metric("warm_n" + std::to_string(n0), std::move(j));
  }
  table.note("verify_warm shadow-runs the cold protocol on every snapshot "
             "and run_churn throws on any status/estimate mismatch — this "
             "table existing means warm == cold decision-for-decision. The "
             "termination predicate needs global flood evidence every "
             "epoch, so exact message savings are structurally modest; the "
             "durable reuse is the snapshot tier (E20).");
  ctx.emit(table);
  ctx.record_accuracy("fresh_in_band", fresh_band);
  ctx.record_accuracy("msg_savings", savings);
}

}  // namespace

BYZBENCH_REGISTER(e21) {
  ScenarioSpec spec;
  spec.id = "e21";
  spec.title = "Warm-started protocol: decision parity with the cold tier";
  spec.claim = "Warm starts (lazy subphases) are decision-identical to "
               "cold runs on every churn snapshot; savings show up in flood "
               "traffic";
  spec.grid = {{"model", {"steady"}}, {"epochs", {"8"}}, pow2_axis(10, 11)};
  spec.base_trials = 3;
  spec.metrics = {"warm_n<k>.msg_savings", "accuracy.fresh_in_band"};
  spec.run = run_e21;
  return spec;
}
