// E26 — the mid-run equivalence ORACLE at nonzero churn: the message-level
// sim::Engine and the array fast path must produce bitwise-identical
// MidRunOutcomes — statuses, estimates, phase/round/subphase counts, every
// instrumentation counter, the run→stable map, the mask evolution, and the
// event bookkeeping — when driven by the SAME ChurnSchedule under the same
// MembershipPolicy. E24 pinned the machinery at zero churn; this sweep
// pins it where it matters: real mid-run joins/leaves, both policies, and
// the adversarial frontier/boundary schedules, across strategies and
// rates. A comparison counts as identical only when the two tiers' digest
// trails also match entry for entry. The scenario fails unless
// metrics.guard.identical holds with divergences == 0; the golden_e26
// ctest target pins the manifest.
#include "bench_common.hpp"

namespace {

using namespace byz;
using namespace byz::bench;

/// Per-trial result: the oracle's verdict (outcome and trail) plus the
/// digest facts that feed the DIGEST_e26.json sidecar.
struct TrialAudit {
  std::uint32_t ok = 0;
  std::uint64_t digest = 0;
  std::uint32_t trail_divergences = 0;
};

void run_e26(RunContext& ctx) {
  const auto sizes = analysis::pow2_sizes(9, ctx.max_exp(10));
  const auto t = ctx.trials(3);
  const double rates[] = {1.0, 3.0};  // x n0/128 events per run
  const adv::StrategyKind strategies[] = {adv::StrategyKind::kFakeColor,
                                          adv::StrategyKind::kAdaptive};
  const proto::MembershipPolicy policies[] = {
      proto::MembershipPolicy::kTreatAsSilent,
      proto::MembershipPolicy::kReadmitNextPhase};
  const auto schedules = adv::all_midrun_schedule_strategies();

  util::Table table("E26: engine vs fastpath under mid-run churn (" +
                    std::to_string(t) +
                    " trials per cell, d=6, bitwise comparison)");
  table.columns({"n0", "strategy", "policy", "schedule", "events/run",
                 "runs compared", "identical"});
  std::uint64_t total = 0, identical = 0;
  std::uint64_t digest_xor = 0, trail_divergences = 0;
  for (const auto n0 : sizes) {
    for (const auto strategy : strategies) {
      for (const auto policy : policies) {
        for (const auto schedule_strategy : schedules) {
          for (const double rate : rates) {
            const auto events = static_cast<std::uint32_t>(rate * n0 / 128.0);
            const std::uint64_t base_seed =
                0xE26 + n0 + static_cast<std::uint64_t>(rate * 16) +
                static_cast<std::uint64_t>(schedule_strategy);
            const auto oks = ctx.scheduler().map(t, [&](std::uint64_t i) {
              const auto seed =
                  bench_core::TrialScheduler::trial_seed(base_seed, i);
              dynamics::MutableOverlay overlay(n0, 6, 0, seed);
              util::Xoshiro256 place_rng(util::mix_seed(seed, 0x0B12));
              const std::vector<bool> byz = graph::random_byzantine_mask(
                  n0, sim::derive_byz_count(n0, 0.7), place_rng);

              dynamics::ChurnEpoch epoch;
              epoch.joins = events / 2;
              epoch.sybil_joins = events / 8;
              epoch.leaves = events - epoch.joins - epoch.sybil_joins;
              proto::ProtocolConfig cfg;
              const auto horizon = dynamics::expected_horizon_rounds(
                  n0, 6, cfg.schedule);
              const auto schedule = adv::derive_adversarial_schedule(
                  epoch, horizon, seed, schedule_strategy, 6, cfg.schedule);

              dynamics::MidRunConfig mid_cfg;
              mid_cfg.policy = policy;
              mid_cfg.schedule_strategy = schedule_strategy;
              util::Xoshiro256 churn_rng(util::mix_seed(seed, 0xC002));
              // A divergence writes a byzobs/forensics/v1 report under
              // --digest-out.
              obs::AuditConfig audit;
              audit.scenario = "e26";
              audit.seed = seed;
              audit.out_dir = ctx.digest_out();
              const auto cmp = dynamics::compare_midrun_tiers(
                  overlay, byz, strategy, cfg, seed, schedule, mid_cfg,
                  adv::ChurnAdversary::kNone, churn_rng, audit);
              TrialAudit r;
              r.ok = cmp.verdict.passed ? 1 : 0;
              r.digest = cmp.verdict.run_digest_a;
              r.trail_divergences = cmp.verdict.trails_match ? 0 : 1;
              return r;
            });
            std::uint64_t cell_ok = 0;
            for (const auto& r : oks) {
              cell_ok += r.ok;
              digest_xor ^= r.digest;
              trail_divergences += r.trail_divergences;
            }
            total += t;
            identical += cell_ok;
            table.row()
                .cell(std::uint64_t{n0})
                .cell(adv::to_string(strategy))
                .cell(proto::to_string(policy))
                .cell(adv::to_string(schedule_strategy))
                .cell(std::uint64_t{events})
                .cell(std::uint64_t{t})
                .cell(cell_ok == t ? "yes" : "NO");
          }
        }
      }
    }
  }
  table.note("Each comparison runs run_counting_midrun (array fast path) "
             "and run_counting_midrun_engine (message-level engine) from "
             "identical initial state — same overlay copy, Byzantine mask, "
             "churn rng, and ChurnSchedule — and demands full bitwise "
             "identity of the outcomes. Unlike E24 this sweep applies REAL "
             "mid-run events, including the adversarial frontier-leave and "
             "boundary-join-storm schedules, so the fastpath's mid-run "
             "membership machinery is cross-checked by an independent "
             "implementation at every rate/policy/strategy combination.");
  ctx.emit(table);

  Json guard = Json::object();
  guard["identical"] = (identical == total);
  guard["divergences"] = total - identical;
  guard["compared"] = total;
  ctx.metric("guard", std::move(guard));
  write_digest_sidecar(ctx, "e26", digest_xor, total, trail_divergences);
  if (identical != total) {
    throw std::runtime_error(
        "engine diverged from fastpath under mid-run churn: " +
        std::to_string(total - identical) + " of " + std::to_string(total));
  }
}

}  // namespace

BYZBENCH_REGISTER(e26) {
  ScenarioSpec spec;
  spec.id = "e26";
  spec.title = "Mid-run oracle: engine vs fastpath bitwise at nonzero churn";
  spec.claim = "Under identical mid-run churn schedules — uniform or "
               "adversarial, both membership policies — the message-level "
               "engine and the array fast path produce bitwise-identical "
               "outcomes, making tier equivalence a true mid-run oracle";
  spec.grid = {{"strategy", {"fake-color", "adaptive"}},
               {"policy", {"treat-as-silent", "readmit-next-phase"}},
               {"schedule",
                {"uniform", "frontier-leaves", "boundary-join-storm"}},
               {"rate", {"1x", "3x"}},
               pow2_axis(9, 10)};
  spec.base_trials = 3;
  spec.metrics = {"guard.identical", "guard.divergences"};
  spec.run = run_e26;
  return spec;
}
