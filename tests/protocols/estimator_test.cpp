#include "protocols/estimator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>

#include "adversary/strategies.hpp"
#include "graph/categories.hpp"
#include "graph/small_world.hpp"
#include "obs/digest.hpp"
#include "protocols/brc/brc.hpp"
#include "protocols/estimate.hpp"
#include "sim/runner.hpp"
#include "util/rng.hpp"

namespace byz::proto {
namespace {

std::shared_ptr<const graph::Overlay> make_overlay(graph::NodeId n,
                                                   std::uint32_t d,
                                                   std::uint64_t seed) {
  graph::OverlayParams params;
  params.n = n;
  params.d = d;
  params.seed = seed;
  return std::make_shared<graph::Overlay>(graph::Overlay::build(params));
}

std::vector<bool> make_byz(graph::NodeId n, double delta, std::uint64_t seed) {
  util::Xoshiro256 rng(util::mix_seed(seed, 0x0B12));
  return graph::random_byzantine_mask(n, sim::derive_byz_count(n, delta), rng);
}

TEST(EstimatorRegistry, BuiltinsRegistered) {
  EXPECT_TRUE(estimator_registered("algo1"));
  EXPECT_TRUE(estimator_registered("algo2"));
  EXPECT_TRUE(estimator_registered("brc"));
  EXPECT_FALSE(estimator_registered("no-such-backend"));

  const auto names = estimator_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "algo2"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "brc"), names.end());
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(EstimatorRegistry, UnknownNameThrowsWithKnownList) {
  try {
    (void)make_estimator("no-such-backend");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no-such-backend"), std::string::npos);
    // The CLI layers surface this verbatim, so the message must name the
    // registered backends.
    EXPECT_NE(what.find("algo2"), std::string::npos);
    EXPECT_NE(what.find("brc"), std::string::npos);
  }
}

TEST(EstimatorRegistry, NamesMatchInstances) {
  EXPECT_EQ(make_estimator("algo1")->name(), "algo1");
  EXPECT_EQ(make_estimator("algo2")->name(), "algo2");
  EXPECT_EQ(make_estimator("brc")->name(), "brc");
}

TEST(CombinedAgreementBound, RatioBandFromOwnBounds) {
  const EstimatorBound a{0.5, 2.0, 0.1};
  const EstimatorBound b{0.8, 1.6, 0.05};
  const auto band = combined_agreement_bound(a, b);
  EXPECT_DOUBLE_EQ(band.lo, 0.5 / 1.6);
  EXPECT_DOUBLE_EQ(band.hi, 2.0 / 0.8);
}

TEST(CombinedAgreementBound, DegenerateBoundYieldsZero) {
  const auto band = combined_agreement_bound({0.5, 2.0, 0.1}, {0.0, 0.0, 0.0});
  EXPECT_DOUBLE_EQ(band.lo, 0.0);
  EXPECT_DOUBLE_EQ(band.hi, 0.0);
}

TEST(EstimatorInterface, Algo2MatchesDirectCall) {
  const auto overlay = make_overlay(512, 6, 0xE5701);
  const auto byz = make_byz(512, 0.7, 0xE5701);
  const auto est = make_estimator("algo2");

  auto s1 = adv::make_strategy(adv::StrategyKind::kFakeColor);
  const auto via_interface = est->run(*overlay, byz, *s1, 0xC0105EED);

  auto s2 = adv::make_strategy(adv::StrategyKind::kFakeColor);
  const auto direct = run_counting_with(*overlay, byz, *s2, ProtocolConfig{},
                                        0xC0105EED, RunControls{});
  EXPECT_EQ(via_interface, direct);
  // The declared band is the default accuracy band, not a copy of it.
  const auto bound = est->bound(*overlay);
  EXPECT_EQ(bound.lo, kBandLo);
  EXPECT_EQ(bound.hi, kBandHi);
}

TEST(EstimatorInterface, Algo1ForcesAblationConfig) {
  const auto overlay = make_overlay(512, 6, 0xE5702);
  const auto byz = make_byz(512, 0.7, 0xE5702);
  const auto est = make_estimator("algo1");

  auto s1 = adv::make_strategy(adv::StrategyKind::kFakeColor);
  const auto via_interface = est->run(*overlay, byz, *s1, 0xC0105EED);
  EXPECT_EQ(via_interface.instr.verify_messages, 0u);
  EXPECT_EQ(via_interface.instr.crashes, 0u);

  ProtocolConfig basic;
  basic.verification.enabled = false;
  basic.crash_rule = false;
  auto s2 = adv::make_strategy(adv::StrategyKind::kFakeColor);
  const auto direct = run_counting_with(*overlay, byz, *s2, basic, 0xC0105EED,
                                        RunControls{});
  EXPECT_EQ(via_interface, direct);
  const auto bound = est->bound(*overlay);
  EXPECT_EQ(bound.lo, kBandLo);
  EXPECT_EQ(bound.hi, kBandHi);
}

TEST(BrcEstimator, HonestRunHonorsDeclaredBound) {
  const auto overlay = make_overlay(1024, 6, 0xB4C1);
  const auto byz = make_byz(1024, 0.7, 0xB4C1);
  const auto est = make_estimator("brc");
  const auto bound = est->bound(*overlay);
  ASSERT_GT(bound.lo, 0.0);
  ASSERT_GT(bound.hi, bound.lo);

  auto strategy = adv::make_strategy(adv::StrategyKind::kHonest);
  const auto run = est->run(*overlay, byz, *strategy, 0xB4C1);
  const auto acc = summarize_accuracy(run, 1024, bound.lo, bound.hi);
  EXPECT_GT(acc.decided, 0u);
  EXPECT_GE(acc.frac_in_band, 1.0 - bound.eps);
  const double med = median_decided_estimate(run) / std::log2(1024.0);
  EXPECT_GE(med, bound.lo);
  EXPECT_LE(med, bound.hi);
  // BRC runs no witness interrogation by construction.
  EXPECT_EQ(run.instr.verify_messages, 0u);
  EXPECT_EQ(run.instr.crashes, 0u);
}

TEST(BrcEstimator, CommitmentFilterNeutralizesFakeColors) {
  // Every forged color exceeds the committed member maximum and is dropped
  // before delivery, so a fake-color adversary degenerates into an honest
  // relay: decisions and estimates are IDENTICAL to the honest run, and
  // the filter accounts for every attempted injection.
  const auto overlay = make_overlay(1024, 6, 0xB4C2);
  const auto byz = make_byz(1024, 0.7, 0xB4C2);
  const auto est = make_estimator("brc");

  auto honest = adv::make_strategy(adv::StrategyKind::kHonest);
  const auto clean = est->run(*overlay, byz, *honest, 0xB4C2);
  auto fake = adv::make_strategy(adv::StrategyKind::kFakeColor);
  const auto attacked = est->run(*overlay, byz, *fake, 0xB4C2);

  EXPECT_EQ(attacked.status, clean.status);
  EXPECT_EQ(attacked.estimate, clean.estimate);
  EXPECT_GT(attacked.instr.injections_attempted, 0u);
  EXPECT_EQ(attacked.instr.injections_accepted, 0u);
  EXPECT_EQ(attacked.instr.injections_caught,
            attacked.instr.injections_attempted);
}

TEST(BrcEstimator, RunNeverBuildsG) {
  // BRC has no adjacency exchange and its Verifier views the ball counts,
  // so a BRC run, honest or attacked, leaves the overlay's G unbuilt; an
  // Algorithm 2 run on the same overlay builds it.
  const auto overlay = make_overlay(1024, 6, 0xB4C3);
  const auto byz = make_byz(1024, 0.7, 0xB4C3);
  const std::uint64_t eager = overlay->memory_bytes();
  for (const auto kind :
       {adv::StrategyKind::kHonest, adv::StrategyKind::kFakeColor}) {
    auto strategy = adv::make_strategy(kind);
    (void)make_estimator("brc")->run(*overlay, byz, *strategy, 0xB4C3);
    EXPECT_EQ(overlay->memory_bytes(), eager);
  }
  auto strategy = adv::make_strategy(adv::StrategyKind::kHonest);
  (void)make_estimator("algo2")->run(*overlay, byz, *strategy, 0xB4C3);
  EXPECT_GT(overlay->memory_bytes(), eager);
}

/// Live-topology hooks that change nothing: every node is present all
/// run, neighbors are the overlay's, and every phase gets one Verifier. A
/// run through them floods one repetition at a time.
class PassThroughHooks final : public MidRunHooks {
 public:
  PassThroughHooks(const graph::Overlay& overlay, const Verifier& verifier)
      : overlay_(overlay), verifier_(verifier), alive_(overlay.num_nodes()) {
    for (graph::NodeId v = 0; v < overlay.num_nodes(); ++v) alive_.set(v);
  }
  [[nodiscard]] graph::NodeId node_bound() const override {
    return overlay_.num_nodes();
  }
  [[nodiscard]] const util::Bitset& alive_set() const override {
    return alive_;
  }
  [[nodiscard]] bool departed(graph::NodeId /*v*/) const override {
    return false;
  }
  [[nodiscard]] std::span<const graph::NodeId> neighbors(
      graph::NodeId v) const override {
    return overlay_.h_simple().neighbors(v);
  }
  void begin_round(const RoundClock& /*clock*/,
                   std::span<const graph::NodeId> /*frontier*/) override {}
  [[nodiscard]] const Verifier* begin_phase(
      std::uint32_t /*phase*/,
      std::vector<graph::NodeId>& /*admitted*/) override {
    return &verifier_;
  }

 private:
  const graph::Overlay& overlay_;
  const Verifier& verifier_;
  util::Bitset alive_;
};

TEST(BrcEstimator, FusedRepetitionsMatchOneAtATime) {
  // A static run floods a batch's repetitions side by side: 15 in one
  // pass, whose medians are read off the lane rows, or 17 in two passes.
  // A run through pass-through live hooks floods them one at a time.
  // Outcomes, counters and digest trails must agree, with injections
  // that pass the commitment filter (the probe's small value), forged
  // ones it drops, and suppression.
  const graph::NodeId n = 700;
  const auto overlay = make_overlay(n, 6, 0xB4C7);
  const auto byz = make_byz(n, 0.7, 0xB4C7);
  VerificationConfig vcfg;
  vcfg.enabled = false;
  const Verifier verifier(*overlay, byz, vcfg);
  const auto strategy = [](int which) -> std::unique_ptr<adv::Strategy> {
    if (which == 0) return std::make_unique<adv::InjectionProbe>(2, 3);
    return adv::make_strategy(which == 1 ? adv::StrategyKind::kFakeColor
                                         : adv::StrategyKind::kSuppress);
  };
  for (const std::uint32_t reps : {15u, 17u}) {
    for (int which = 0; which < 3; ++which) {
      SCOPED_TRACE("reps=" + std::to_string(reps) +
                   " strategy=" + std::to_string(which));
      BrcConfig cfg;
      cfg.reps_per_batch = reps;
      obs::RunDigester fused_digest;
      RunControls fused_controls;
      fused_controls.digester = &fused_digest;
      const auto fused_strategy = strategy(which);
      const RunResult fused = run_brc_counting(
          *overlay, byz, *fused_strategy, cfg, 0xB4C7, fused_controls);

      PassThroughHooks hooks(*overlay, verifier);
      obs::RunDigester single_digest;
      RunControls single_controls;
      single_controls.midrun = &hooks;
      single_controls.digester = &single_digest;
      const auto single_strategy = strategy(which);
      const RunResult single = run_brc_counting(
          *overlay, byz, *single_strategy, cfg, 0xB4C7, single_controls);

      EXPECT_GT(fused.phases_executed, 1u);
      EXPECT_EQ(fused.status, single.status);
      EXPECT_EQ(fused.estimate, single.estimate);
      EXPECT_EQ(fused.instr, single.instr);
      EXPECT_EQ(fused.phases_executed, single.phases_executed);
      EXPECT_EQ(fused.subphases_executed, single.subphases_executed);
      if (which == 0) {
        EXPECT_GT(fused.instr.injections_attempted, 0u);
      }
      // Vacuity: both trails hold the batches' rounds.
      EXPECT_GT(fused_digest.trail().rounds.size(), 0u);
      EXPECT_EQ(fused_digest.trail().rounds.size(),
                single_digest.trail().rounds.size());
      const auto div = obs::first_divergence(fused_digest.trail(),
                                             single_digest.trail());
      EXPECT_FALSE(div.diverged())
          << "level=" << obs::to_string(div.level) << " phase=" << div.phase
          << " subphase=" << div.subphase << " round=" << div.round;
    }
  }
}

TEST(BrcEstimator, MaxBatchesCapReportsUndecided) {
  // A one-batch cap cannot reach the stability rule (it needs two batch
  // medians), so every honest node stays undecided — the cap maps through
  // ProtocolConfig::max_phase like Algorithm 2's phase cap.
  const auto overlay = make_overlay(256, 6, 0xB4C5);
  const std::vector<bool> byz(256, false);
  ProtocolConfig cfg;
  cfg.max_phase = 1;
  const auto est = make_estimator("brc", cfg);
  auto strategy = adv::make_strategy(adv::StrategyKind::kHonest);
  const auto run = est->run(*overlay, byz, *strategy, 0xB4C5);
  EXPECT_EQ(run.phases_executed, 1u);
  const auto acc = summarize_accuracy(run, 256);
  EXPECT_EQ(acc.decided, 0u);
  EXPECT_EQ(acc.undecided, acc.honest);
}

}  // namespace
}  // namespace byz::proto
