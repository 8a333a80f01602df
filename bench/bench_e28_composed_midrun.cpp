// E28 — the composed tier under CONTINUOUS live churn: mid-run splices
// (events strike WHILE Algorithm 2 floods) epoch after epoch, with the
// per-epoch message-level engine oracle on. This is the steady-state loop
// a long-running deployment would operate: each epoch's run executes on a
// fresh MutableOverlay::snapshot(), its run-start Verifier reads that
// snapshot's ball counts, and the engine oracle (run_engine) replays it
// message by message, outcome and digest trail. The scenario fails unless
// metrics.guard holds: engine divergences == 0 and rows_recomputed > 0
// (the readmit Verifier refresh did work; the perf trajectory records the
// count per commit); E24/E26 remain the standalone bitwise anchors.
// All reported metrics are counters — no wall-clock — so the manifest is
// bitwise identical across --jobs and joins the determinism comparison.
#include "bench_common.hpp"

namespace {

using namespace byz;
using namespace byz::bench;

void run_e28(RunContext& ctx) {
  const auto sizes = analysis::pow2_sizes(9, ctx.max_exp(10));
  const auto t = ctx.trials(3);
  constexpr std::uint32_t kEpochs = 6;
  const double rates[] = {0.001, 0.01};  // churn fraction per side per epoch
  const proto::MembershipPolicy policies[] = {
      proto::MembershipPolicy::kTreatAsSilent,
      proto::MembershipPolicy::kReadmitNextPhase};

  util::Table table("E28: composed tier under live mid-run churn, d=6 (" +
                    std::to_string(t) + " trials, " + std::to_string(kEpochs) +
                    " epochs, engine oracle on)");
  table.columns({"n0", "policy", "churn/epoch", "engine ok", "fresh in-band"});

  std::vector<double> band_all;
  std::uint64_t guard_divergences = 0;
  std::uint64_t guard_rows = 0;
  std::uint64_t digest_xor = 0, epochs_digested = 0, forensics_reports = 0;
  for (const auto n0 : sizes) {
    for (const auto policy : policies) {
      for (const double rate : rates) {
        dynamics::ChurnRunConfig cfg;
        cfg.trace.n0 = n0;
        cfg.trace.epochs = kEpochs;
        cfg.trace.arrival_rate = rate * n0;
        cfg.trace.departure_rate = rate * n0;
        cfg.trace.min_n = n0 / 2;
        cfg.d = 6;
        cfg.delta = 0.7;
        cfg.strategy = adv::StrategyKind::kFakeColor;
        cfg.run_engine = true;
        cfg.mid_run.enabled = true;
        cfg.mid_run.policy = policy;
        // The engine oracle writes a byzobs/forensics/v1 report under
        // --digest-out for each epoch that diverges.
        cfg.audit_dir = ctx.digest_out();

        const std::uint64_t base_seed = 0xE28 + n0 +
                                        static_cast<std::uint64_t>(rate * 1e4);
        const auto runs = ctx.scheduler().map(t, [&](std::uint64_t i) {
          auto trial_cfg = cfg;
          trial_cfg.trace.seed =
              bench_core::TrialScheduler::trial_seed(base_seed, i);
          trial_cfg.seed = trial_cfg.trace.seed;
          return dynamics::run_churn(trial_cfg);
        });

        util::OnlineStats fresh;
        std::uint64_t rows_recomputed = 0;
        std::uint64_t messages = 0;
        std::uint64_t divergences = 0;
        for (const auto& run : runs) {
          for (const auto& ep : run.epochs) {
            fresh.add(ep.fresh.frac_in_band);
            band_all.push_back(ep.fresh.frac_in_band);
            if (!ep.engine_match) ++divergences;
            if (ep.run_digest != 0) {
              digest_xor ^= ep.run_digest;
              ++epochs_digested;
            }
            if (!ep.forensics_path.empty()) ++forensics_reports;
            messages += ep.messages;
            rows_recomputed += ep.verify_rows_recomputed;
          }
        }
        const bool silent =
            policy == proto::MembershipPolicy::kTreatAsSilent;
        table.row()
            .cell(std::uint64_t{n0})
            .cell(proto::to_string(policy))
            .cell(util::format_double(200.0 * rate, 1) + "%")
            .cell(divergences == 0 ? "yes" : "NO")
            .cell(fresh.mean(), 4);

        Json j = Json::object();
        j["fresh_in_band"] = fresh.mean();
        j["rows_recomputed"] = rows_recomputed;
        j["messages"] = messages;
        j["engine_divergences"] = divergences;
        ctx.metric("composed_n" + std::to_string(n0) + "_" +
                       std::string(silent ? "silent" : "readmit") + "_c" +
                       std::to_string(static_cast<int>(rate * 1000)) + "bp",
                   std::move(j));

        // Guard cell: lowest churn rate, readmit policy, largest size —
        // the steady-state regime the tentpole claim is about.
        if (!silent && rate == rates[0] && n0 == sizes.back()) {
          guard_divergences = divergences;
          guard_rows = rows_recomputed;
          Json g = Json::object();
          g["n"] = std::uint64_t{n0};
          g["churn_bp"] = static_cast<int>(rate * 1000);
          g["engine_divergences"] = divergences;
          g["rows_recomputed"] = rows_recomputed;
          ctx.metric("guard", std::move(g));
        }
      }
    }
  }
  table.note("Every run starts from a fresh snapshot of the evolving "
             "overlay, and the previous epoch's mid-run and flushed "
             "splices are all in it. 'engine ok' is the per-epoch "
             "message-level oracle. Guard: " +
             std::to_string(guard_divergences) +
             " engine divergences at the lowest rate.");
  ctx.emit(table);
  ctx.record_accuracy("fresh_in_band", band_all);
  write_digest_sidecar(ctx, "e28", digest_xor, epochs_digested,
                       forensics_reports);
  if (guard_divergences != 0) {
    throw std::runtime_error("engine diverged " +
                             std::to_string(guard_divergences) +
                             " times with the composed tiers on");
  }
  if (guard_rows == 0) {
    throw std::runtime_error(
        "readmit Verifier refresh recomputed no rows under mid-run churn");
  }
}

}  // namespace

BYZBENCH_REGISTER(e28) {
  ScenarioSpec spec;
  spec.id = "e28";
  spec.title = "Composed tier: engine oracle under live churn";
  spec.claim = "Mid-run churn runs epoch after epoch on fresh snapshots "
               "and the engine oracle stays divergence-free";
  spec.grid = {{"policy", {"treat-as-silent", "readmit-next-phase"}},
               {"churn_rate", {"0.001", "0.01"}},
               pow2_axis(9, 10)};
  spec.base_trials = 3;
  spec.metrics = {"composed_n<k>_<policy>_c<bp>.engine_divergences",
                  "guard.engine_divergences", "guard.rows_recomputed"};
  spec.run = run_e28;
  return spec;
}
