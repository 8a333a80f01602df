// Divergence-forensics seam tests: compare_midrun_tiers, which digests
// both tiers of every comparison (obs::OracleAudit).
//
// The contract under test:
//   (1) attaching a digester moves no outcome bit: each mid-run tier at
//       nonzero churn and the static run give the same outcome with and
//       without one (pure read-side);
//   (2) a clean comparison reports identical outcomes AND identical
//       hierarchical digest trails, passes, emits no forensics, and
//       repeating it reproduces both run digests;
//   (3) digest trails are identical whether the obs runtime switch is on
//       or off (recording is gated on digester attachment, not
//       obs::enabled(), so traced and untraced runs stay comparable);
//   (4) fault-injection localization: perturbing ONE tier's trail at a
//       known global round fails the comparison, and its
//       byzobs/forensics/v1 report names exactly that round (and its
//       phase/subphase), while the protocol outcomes stay identical — the
//       report explains, it never disturbs;
//   (5) with an out_dir the report lands on disk and parses, and
//       comparisons that share a seed leave one report each, its repro
//       line naming the policy that tells them apart.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_core/json.hpp"
#include "dynamics/midrun.hpp"
#include "graph/categories.hpp"
#include "obs/digest.hpp"
#include "sim/runner.hpp"

namespace byz {
namespace {

using graph::NodeId;

constexpr NodeId kN0 = 224;

/// A nonzero-churn instance: the pre-run state both tiers start from.
struct Instance {
  dynamics::MutableOverlay overlay;
  std::vector<bool> byz;
  dynamics::ChurnSchedule schedule;
  util::Xoshiro256 churn_rng;
};

Instance make_instance(std::uint64_t seed) {
  dynamics::MutableOverlay overlay(kN0, 6, 0, seed);
  util::Xoshiro256 place_rng(util::mix_seed(seed, 0x0B12));
  std::vector<bool> byz = graph::random_byzantine_mask(
      kN0, sim::derive_byz_count(kN0, 0.6), place_rng);

  dynamics::ChurnEpoch epoch;
  epoch.joins = 8;
  epoch.sybil_joins = 2;
  epoch.leaves = 8;
  const auto horizon = dynamics::expected_horizon_rounds(
      kN0, 6, proto::ProtocolConfig{}.schedule);
  return {std::move(overlay), std::move(byz),
          dynamics::derive_schedule(epoch, horizon, seed),
          util::Xoshiro256(util::mix_seed(seed, 0xC002))};
}

dynamics::MidRunConfig with_policy(proto::MembershipPolicy policy) {
  dynamics::MidRunConfig mid_cfg;
  mid_cfg.policy = policy;
  return mid_cfg;
}

dynamics::MidRunConfig readmit() {
  return with_policy(proto::MembershipPolicy::kReadmitNextPhase);
}

dynamics::MidRunTierComparison audited_compare(
    const obs::AuditConfig& audit = {}, std::uint64_t seed = 11,
    dynamics::MidRunConfig mid_cfg = readmit()) {
  const Instance inst = make_instance(seed);
  return dynamics::compare_midrun_tiers(
      inst.overlay, inst.byz, adv::StrategyKind::kFakeColor,
      proto::ProtocolConfig{}, seed ^ 0xC, inst.schedule, mid_cfg,
      adv::ChurnAdversary::kNone, inst.churn_rng, audit);
}

TEST(ForensicsAudit, AttachingADigesterChangesNoBit) {
  const Instance inst = make_instance(11);
  const proto::ProtocolConfig cfg;
  for (const auto tier : {&dynamics::run_counting_midrun,
                          &dynamics::run_counting_midrun_engine}) {
    // Each run starts from its own copy of the pre-run state.
    const auto run = [&](obs::RunDigester* digester) {
      dynamics::MutableOverlay overlay = inst.overlay;
      std::vector<bool> byz = inst.byz;
      util::Xoshiro256 rng = inst.churn_rng;
      auto strategy = adv::make_strategy(adv::StrategyKind::kFakeColor);
      return tier(overlay, byz, *strategy, cfg, 11 ^ 0xC, inst.schedule,
                  readmit(), adv::ChurnAdversary::kNone, rng, nullptr,
                  digester);
    };
    obs::RunDigester digester;
    const auto plain = run(nullptr);
    const auto digested = run(&digester);
    EXPECT_GT(plain.stats.events_applied, 0u);
    EXPECT_FALSE(digester.trail().rounds.empty());
    EXPECT_TRUE(plain == digested);
  }

  const auto snap = inst.overlay.snapshot();
  std::vector<bool> dense_byz(snap.dense_to_stable.size());
  for (NodeId v = 0; v < dense_byz.size(); ++v) {
    dense_byz[v] = inst.byz[snap.dense_to_stable[v]];
  }
  const auto run_static = [&](obs::RunDigester* digester) {
    auto strategy = adv::make_strategy(adv::StrategyKind::kFakeColor);
    proto::RunControls controls;
    controls.digester = digester;
    return proto::run_counting_with(snap.overlay, dense_byz, *strategy, cfg,
                                    11, controls);
  };
  obs::RunDigester digester;
  const auto plain = run_static(nullptr);
  const auto digested = run_static(&digester);
  EXPECT_FALSE(digester.trail().rounds.empty());
  EXPECT_TRUE(plain == digested);
}

TEST(ForensicsAudit, CleanComparisonHasMatchingTrailsAndNoReport) {
  obs::AuditConfig audit;
  audit.scenario = "forensics_test";
  audit.seed = 11;
  const auto cmp = audited_compare(audit);
  EXPECT_TRUE(cmp.identical);
  EXPECT_TRUE(cmp.verdict.trails_match);
  EXPECT_TRUE(cmp.verdict.passed);
  EXPECT_TRUE(cmp.verdict.forensics.empty());
  EXPECT_TRUE(cmp.verdict.forensics_path.empty());
  EXPECT_EQ(cmp.verdict.run_digest_a, cmp.verdict.run_digest_b);
  EXPECT_NE(cmp.verdict.run_digest_a, 0u);
  // Two audited comparisons give equal run digests.
  const auto again = audited_compare(audit);
  EXPECT_EQ(again.verdict.run_digest_a, cmp.verdict.run_digest_a);
  EXPECT_EQ(again.verdict.run_digest_b, cmp.verdict.run_digest_b);
}

TEST(ForensicsAudit, TrailsIdenticalTracedAndUntraced) {
  obs::AuditConfig audit;
  audit.scenario = "forensics_test";
  audit.seed = 11;
  const auto untraced = audited_compare(audit);
  obs::set_enabled(true);
  const auto traced = audited_compare(audit);
  obs::set_enabled(false);
  EXPECT_EQ(traced.verdict.run_digest_a, untraced.verdict.run_digest_a);
  EXPECT_EQ(traced.verdict.run_digest_b, untraced.verdict.run_digest_b);
  EXPECT_TRUE(traced.fastpath == untraced.fastpath);
}

TEST(ForensicsAudit, InjectedPerturbationLocalizesToTheExactRound) {
  constexpr std::uint64_t kInjectedRound = 5;
  obs::AuditConfig audit;
  audit.scenario = "forensics_test";
  audit.seed = 11;
  audit.flags = "--unit-test";
  audit.perturb_tier = 1;  // engine trail
  audit.perturb_round = kInjectedRound;
  audit.perturb_mask = 0xDEAD;
  const auto cmp = audited_compare(audit);

  // The perturbation touches only the TRAIL: outcomes still match, and
  // the comparison as a whole fails.
  EXPECT_TRUE(cmp.identical);
  EXPECT_FALSE(cmp.verdict.trails_match);
  EXPECT_FALSE(cmp.verdict.passed);
  EXPECT_NE(cmp.verdict.run_digest_a, cmp.verdict.run_digest_b);
  ASSERT_FALSE(cmp.verdict.forensics.empty());

  const auto doc = bench_core::Json::parse(cmp.verdict.forensics);
  ASSERT_TRUE(doc.has_value()) << cmp.verdict.forensics;
  EXPECT_EQ(doc->find("schema")->as_string(), "byzobs/forensics/v1");
  EXPECT_EQ(doc->find("detail")->as_string(),
            "digest trails diverged (outcomes identical)");
  const bench_core::Json* div = doc->find("first_divergence");
  ASSERT_NE(div, nullptr);
  EXPECT_EQ(div->find("level")->as_string(), "round");
  EXPECT_EQ(div->find("round")->as_number(),
            static_cast<double>(kInjectedRound));
  // The named (phase, subphase) must be the injected round's position in
  // the hierarchy, as recorded by the clean tier's trail.
  const bench_core::Json* tiers = doc->find("tiers");
  ASSERT_NE(tiers, nullptr);
  ASSERT_EQ(tiers->elements().size(), 2u);
  const bench_core::Json* rounds =
      tiers->elements()[0].find("divergent_subphase_rounds");
  ASSERT_NE(rounds, nullptr);
  // The round evidence is scoped to the divergent (phase, subphase)
  // branch, so finding the injected round there confirms the named
  // phase/subphase too.
  bool named = false;
  for (const auto& r : rounds->elements()) {
    named = named || r.find("round")->as_number() ==
                         static_cast<double>(kInjectedRound);
  }
  EXPECT_TRUE(named) << "report's round evidence omits the injected round";
  EXPECT_GT(div->find("phase")->as_number(), 0.0);
  // Flight-recorder tails ride along as evidence.
  EXPECT_NE(tiers->elements()[0].find("flight_tail"), nullptr);
  EXPECT_NE(tiers->elements()[1].find("flight_tail"), nullptr);
}

TEST(ForensicsAudit, ReportIsWrittenToOutDir) {
  obs::AuditConfig audit;
  audit.scenario = "forensics_write";
  audit.seed = 13;
  audit.out_dir = ::testing::TempDir();
  audit.perturb_tier = 0;  // fastpath trail this time
  audit.perturb_round = 3;
  audit.perturb_mask = 0xF00D;
  const auto cmp = audited_compare(audit, /*seed=*/13);
  EXPECT_FALSE(cmp.verdict.passed);
  ASSERT_FALSE(cmp.verdict.forensics_path.empty());
  std::ifstream in(cmp.verdict.forensics_path);
  ASSERT_TRUE(in.good()) << cmp.verdict.forensics_path;
  std::stringstream buf;
  buf << in.rdbuf();
  const auto doc = bench_core::Json::parse(buf.str());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("scenario")->as_string(), "forensics_write");
  EXPECT_EQ(doc->find("seed")->as_number(), 13.0);
}

TEST(ForensicsAudit, ComparisonsSharingASeedKeepOneReportEach) {
  // E26 runs both policies of a cell under one seed: each failing
  // comparison must leave its own report, named in its repro line.
  const std::string dir = ::testing::TempDir() + "/forensics_shared_seed";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  obs::AuditConfig audit;
  audit.scenario = "forensics_shared_seed";
  audit.seed = 17;
  audit.out_dir = dir;
  audit.perturb_tier = 1;
  audit.perturb_round = 2;
  audit.perturb_mask = 0xBEEF;
  const proto::MembershipPolicy policies[] = {
      proto::MembershipPolicy::kTreatAsSilent,
      proto::MembershipPolicy::kReadmitNextPhase};
  for (const auto policy : policies) {
    const auto cmp = audited_compare(audit, /*seed=*/17, with_policy(policy));
    EXPECT_FALSE(cmp.verdict.passed);
  }

  std::vector<std::string> repros;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(entry.path());
    std::stringstream buf;
    buf << in.rdbuf();
    const auto doc = bench_core::Json::parse(buf.str());
    ASSERT_TRUE(doc.has_value()) << entry.path();
    repros.push_back(doc->find("repro")->as_string());
  }
  ASSERT_EQ(repros.size(), 2u) << "a report overwrote another";
  for (const auto policy : policies) {
    const std::string flag = "policy=" + std::string(proto::to_string(policy));
    std::size_t named = 0;
    for (const auto& repro : repros) {
      if (repro.find(flag) != std::string::npos) ++named;
    }
    EXPECT_EQ(named, 1u) << flag;
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace byz
