// E29 — audit-overhead + parity guard for the divergence-forensics layer.
// An E24-style mid-run workload runs through compare_midrun_tiers twice
// per trial: once plain, once with an obs::AuditConfig attached (both
// tiers digesting every round, flight recorders armed). The guard asserts
// the audit is pure read-side — the audited outcomes are bitwise identical
// to the plain ones, the two tiers' digest trails match entry for entry,
// and repeating the audited run reproduces the identical run digest — and
// that the wall-clock overhead of auditing stays within budget.
//
// This scenario measures wall-time, so trials run SERIALLY and
// the manifest is excluded from the CI --jobs determinism cmp; the
// overhead ratio feeds tools/perf_trajectory.py instead.
#include "bench_common.hpp"

namespace {

using namespace byz;
using namespace byz::bench;

/// Wall-clock budget: an audited oracle comparison may cost at most this
/// multiple of the plain comparison. Digesting is one XOR per message plus
/// one mix per round/phase close, so 3x is generous headroom for small n
/// where the fixed cost dominates.
constexpr double kOverheadBudget = 3.0;

struct Cell {
  double plain_ms = 0.0;
  double audited_ms = 0.0;
  std::uint64_t compared = 0;
  std::uint64_t identical = 0;  ///< outcomes match plain AND trails match
  bool digests_deterministic = true;
};

Cell run_cell(graph::NodeId n0, adv::StrategyKind strategy, std::uint32_t t,
              std::uint64_t base_seed) {
  Cell cell;
  for (std::uint32_t i = 0; i < t; ++i) {
    const auto seed = bench_core::TrialScheduler::trial_seed(base_seed, i);
    dynamics::MutableOverlay overlay(n0, 6, 0, seed);
    util::Xoshiro256 place_rng(util::mix_seed(seed, 0x0B12));
    const std::vector<bool> byz = graph::random_byzantine_mask(
        n0, sim::derive_byz_count(n0, 0.7), place_rng);

    proto::ProtocolConfig cfg;
    dynamics::ChurnEpoch epoch;
    epoch.joins = static_cast<std::uint32_t>(n0 / 32);
    epoch.sybil_joins = static_cast<std::uint32_t>(n0 / 64);
    epoch.leaves = static_cast<std::uint32_t>(n0 / 32);
    const auto horizon = dynamics::expected_horizon_rounds(n0, 6, cfg.schedule);
    const auto schedule = dynamics::derive_schedule(epoch, horizon, seed);

    dynamics::MidRunConfig mid_cfg;
    mid_cfg.policy = proto::MembershipPolicy::kReadmitNextPhase;
    util::Xoshiro256 churn_rng(util::mix_seed(seed, 0xC002));

    util::Timer t_plain;
    const auto plain = dynamics::compare_midrun_tiers(
        overlay, byz, strategy, cfg, seed, schedule, mid_cfg,
        adv::ChurnAdversary::kNone, churn_rng);
    cell.plain_ms += t_plain.milliseconds();

    obs::AuditConfig audit;
    audit.scenario = "e29";
    audit.seed = seed;
    audit.flags = "--audit";
    util::Timer t_audit;
    const auto audited = dynamics::compare_midrun_tiers(
        overlay, byz, strategy, cfg, seed, schedule, mid_cfg,
        adv::ChurnAdversary::kNone, churn_rng, &audit);
    cell.audited_ms += t_audit.milliseconds();

    const auto again = dynamics::compare_midrun_tiers(
        overlay, byz, strategy, cfg, seed, schedule, mid_cfg,
        adv::ChurnAdversary::kNone, churn_rng, &audit);
    cell.digests_deterministic =
        cell.digests_deterministic &&
        again.run_digest_fastpath == audited.run_digest_fastpath &&
        again.run_digest_engine == audited.run_digest_engine;

    ++cell.compared;
    const bool ok = audited.identical && audited.digests_identical &&
                    audited.fastpath == plain.fastpath &&
                    audited.engine == plain.engine;
    if (ok) ++cell.identical;
  }
  return cell;
}

void run_e29(RunContext& ctx) {
  const auto sizes = analysis::pow2_sizes(9, ctx.max_exp(10));
  const auto t = ctx.trials(3);
  const adv::StrategyKind strategies[] = {adv::StrategyKind::kHonest,
                                          adv::StrategyKind::kFakeColor};

  util::Table table("E29: divergence-audit overhead and parity (" +
                    std::to_string(t) + " serial trials per cell, d=6)");
  table.columns({"n0", "strategy", "plain ms", "audited ms", "overhead",
                 "parity"});
  double total_plain = 0.0, total_audited = 0.0;
  std::uint64_t compared = 0, identical = 0;
  bool deterministic = true;
  for (const auto n0 : sizes) {
    for (const auto strategy : strategies) {
      const auto cell = run_cell(n0, strategy, t, 0xE29 + n0);
      total_plain += cell.plain_ms;
      total_audited += cell.audited_ms;
      compared += cell.compared;
      identical += cell.identical;
      deterministic = deterministic && cell.digests_deterministic;
      const double overhead =
          cell.plain_ms > 0.0 ? cell.audited_ms / cell.plain_ms : 0.0;
      table.row()
          .cell(std::uint64_t{n0})
          .cell(adv::to_string(strategy))
          .cell(cell.plain_ms, 2)
          .cell(cell.audited_ms, 2)
          .cell(util::format_double(overhead, 2) + "x")
          .cell(cell.identical == cell.compared ? "yes" : "NO");
    }
  }
  const double overhead_ratio =
      total_plain > 0.0 ? total_audited / total_plain : 0.0;
  table.note("Each trial runs the E26 oracle comparison plain and audited "
             "(both tiers digesting, flight recorders armed) and checks the "
             "audited outcomes bitwise against the plain ones, the two "
             "tiers' digest trails entry for entry, and repeat-run digest "
             "determinism. Audit overhead " +
             util::format_double(overhead_ratio, 2) + "x (budget " +
             util::format_double(kOverheadBudget, 1) +
             "x); CI tracks it via tools/perf_trajectory.py and separately "
             "diffs BENCH manifests of audited vs plain byzbench runs.");
  ctx.emit(table);

  Json guard = Json::object();
  guard["identical"] = (identical == compared);
  guard["compared"] = compared;
  guard["deterministic"] = deterministic;
  guard["overhead_ratio"] = overhead_ratio;
  guard["within_budget"] = (overhead_ratio <= kOverheadBudget);
  ctx.metric("guard", std::move(guard));
}

}  // namespace

BYZBENCH_REGISTER(e29) {
  ScenarioSpec spec;
  spec.id = "e29";
  spec.title = "Divergence-audit overhead and digest parity";
  spec.claim = "Auditing the tier oracle — hierarchical digests on every "
               "round plus flight recording — changes no outcome bit, "
               "matches trails across tiers, and costs <= 3x wall-clock on "
               "the comparison it instruments";
  spec.grid = {{"strategy", {"honest", "fake-color"}},
               {"audit", {"off", "on"}},
               pow2_axis(9, 10)};
  spec.base_trials = 3;
  spec.metrics = {"guard.identical", "guard.overhead_ratio",
                  "guard.within_budget"};
  spec.run = run_e29;
  return spec;
}
