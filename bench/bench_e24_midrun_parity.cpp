// E24 — the mid-run correctness anchor: with an EMPTY round schedule the
// mid-run-capable path (live hooks attached, zero events) must be BITWISE
// identical to the static path on the same snapshot — statuses, estimates,
// phase/round counts, and every instrumentation counter, under both
// membership policies. This is the contract that keeps the mid-run code
// honest: whatever machinery the live tier threads through the kernel, it
// costs nothing and changes nothing until an event actually fires.
// Each comparison also digests both runs (obs::OracleAudit) and counts
// as identical only when their digest trails match entry for entry. The
// scenario checks its own guard: when metrics.guard.identical is false it
// fails (byzbench exits 1), after writing the manifest and sidecar; the
// golden_e24 ctest target pins the manifest byte for byte.
#include "bench_common.hpp"

namespace {

using namespace byz;
using namespace byz::bench;

/// Per-trial result: parity (outcome and trail) plus the digest facts for
/// the DIGEST_e24.json sidecar.
struct TrialAudit {
  std::uint32_t ok = 0;
  std::uint64_t digest = 0;
  std::uint32_t trail_divergences = 0;
};

void run_e24(RunContext& ctx) {
  const auto sizes = analysis::pow2_sizes(9, ctx.max_exp(11));
  const auto t = ctx.trials(4);
  const adv::StrategyKind strategies[] = {adv::StrategyKind::kHonest,
                                          adv::StrategyKind::kFakeColor,
                                          adv::StrategyKind::kAdaptive};
  const proto::MembershipPolicy policies[] = {
      proto::MembershipPolicy::kTreatAsSilent,
      proto::MembershipPolicy::kReadmitNextPhase};

  util::Table table("E24: zero-mid-run-churn parity with the static path (" +
                    std::to_string(t) + " trials per cell, d=6)");
  table.columns({"n0", "strategy", "runs compared", "identical"});
  std::uint64_t total = 0, identical = 0;
  std::uint64_t digest_xor = 0, trail_divergences = 0;
  for (const auto n0 : sizes) {
    for (const auto strategy : strategies) {
      const std::uint64_t base_seed = 0xE24 + n0;
      const auto oks = ctx.scheduler().map(t, [&](std::uint64_t i) {
        const auto seed = bench_core::TrialScheduler::trial_seed(base_seed, i);
        dynamics::MutableOverlay overlay(n0, 6, 0, seed);
        util::Xoshiro256 place_rng(util::mix_seed(seed, 0x0B12));
        std::vector<bool> byz = graph::random_byzantine_mask(
            n0, sim::derive_byz_count(n0, 0.7), place_rng);

        const auto snap = overlay.snapshot();
        std::vector<bool> dense_byz(n0, false);
        for (graph::NodeId v = 0; v < n0; ++v) {
          dense_byz[v] = byz[snap.dense_to_stable[v]];
        }
        proto::ProtocolConfig cfg;
        TrialAudit r;
        for (const auto policy : policies) {
          dynamics::MidRunConfig mid_cfg;
          mid_cfg.policy = policy;
          // Trail parity, not just outcome parity: the static run and the
          // empty-schedule mid-run must fold identical digest trails.
          obs::AuditConfig audit_cfg;
          audit_cfg.out_dir = ctx.digest_out();
          audit_cfg.scenario = "e24";
          audit_cfg.seed = seed;
          audit_cfg.flags = dynamics::midrun_repro_flags(strategy, mid_cfg, {});
          obs::OracleAudit audit(audit_cfg, "static", "midrun-empty");
          auto cold_strategy = adv::make_strategy(strategy);
          proto::RunControls static_rc;
          static_rc.digester = &audit.a();
          const auto expect =
              proto::run_counting_with(snap.overlay, dense_byz, *cold_strategy,
                                       cfg, seed, static_rc);

          util::Xoshiro256 churn_rng(util::mix_seed(seed, 0xC002));
          auto live_strategy = adv::make_strategy(strategy);
          const auto got = dynamics::run_counting_midrun(
              overlay, byz, *live_strategy, cfg, seed,
              dynamics::ChurnSchedule{}, mid_cfg, adv::ChurnAdversary::kNone,
              churn_rng, nullptr, &audit.b());
          const auto verdict = audit.judge(got.run == expect, "e24");
          if (verdict.passed) ++r.ok;
          if (!verdict.trails_match) ++r.trail_divergences;
          r.digest = verdict.run_digest_a;
        }
        return r;
      });
      std::uint64_t cell_ok = 0;
      for (const auto& r : oks) {
        cell_ok += r.ok;
        digest_xor ^= r.digest;
        trail_divergences += r.trail_divergences;
      }
      const std::uint64_t cell_total = static_cast<std::uint64_t>(t) * 2;
      total += cell_total;
      identical += cell_ok;
      table.row()
          .cell(std::uint64_t{n0})
          .cell(adv::to_string(strategy))
          .cell(cell_total)
          .cell(cell_ok == cell_total ? "yes" : "NO");
    }
  }
  table.note("Each comparison pits run_counting_midrun (live hooks, empty "
             "schedule, both membership policies) against the plain static "
             "run on the identical snapshot and checks statuses, estimates, "
             "round/phase counts, and all twelve instrumentation counters. "
             "The unit suite (tests/sim/midrun_equivalence_test.cpp) "
             "enforces the same identity under ctest; CI asserts the guard "
             "below and diffs this manifest across --jobs values.");
  ctx.emit(table);

  Json guard = Json::object();
  guard["identical"] = (identical == total);
  guard["compared"] = total;
  ctx.metric("guard", std::move(guard));
  write_digest_sidecar(ctx, "e24", digest_xor, total, trail_divergences);
  if (identical != total) {
    throw std::runtime_error(
        "mid-run path diverged from the static path at zero churn");
  }
}

}  // namespace

BYZBENCH_REGISTER(e24) {
  ScenarioSpec spec;
  spec.id = "e24";
  spec.title = "Mid-run machinery: bitwise parity at zero mid-run churn";
  spec.claim = "With an empty churn schedule the mid-run-capable path is "
               "bitwise identical to the static path — decisions and every "
               "message counter — under both membership policies";
  spec.grid = {{"strategy", {"honest", "fake-color", "adaptive"}},
               {"policy", {"treat-as-silent", "readmit-next-phase"}},
               pow2_axis(9, 11)};
  spec.base_trials = 4;
  spec.metrics = {"guard.identical"};
  spec.run = run_e24;
  return spec;
}
