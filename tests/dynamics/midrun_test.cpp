// Unit coverage of the mid-run churn building blocks: schedule derivation,
// LiveOverlayFeed bookkeeping (run-id space, mask growth, stats, flush),
// and run_churn's mid-run mode (trace invariants, snapshot injection,
// adaptive cadence, the per-epoch engine oracle and the backends it
// refuses).
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "adversary/midrun_schedule.hpp"
#include "dynamics/epoch_driver.hpp"
#include "dynamics/midrun.hpp"
#include "graph/categories.hpp"
#include "protocols/estimator.hpp"
#include "sim/runner.hpp"

namespace byz {
namespace {

using graph::NodeId;

TEST(ChurnScheduleTest, DerivationIsDeterministicSortedAndComplete) {
  dynamics::ChurnEpoch epoch;
  epoch.joins = 9;
  epoch.sybil_joins = 3;
  epoch.leaves = 7;
  const auto a = dynamics::derive_schedule(epoch, 120, 42);
  const auto b = dynamics::derive_schedule(epoch, 120, 42);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.joins(), epoch.joins);
  EXPECT_EQ(a.sybil_joins(), epoch.sybil_joins);
  EXPECT_EQ(a.leaves(), epoch.leaves);
  EXPECT_TRUE(std::is_sorted(
      a.events.begin(), a.events.end(),
      [](const auto& x, const auto& y) { return x.round < y.round; }));
  for (const auto& e : a.events) EXPECT_LT(e.round, 120u);
  const auto c = dynamics::derive_schedule(epoch, 120, 43);
  EXPECT_NE(a.events, c.events) << "different seeds must move the events";
}

TEST(ChurnScheduleTest, HorizonGrowsWithNetworkSize) {
  proto::ScheduleConfig sched;
  const auto small = dynamics::expected_horizon_rounds(256, 6, sched);
  const auto large = dynamics::expected_horizon_rounds(4096, 6, sched);
  EXPECT_GT(small, 0u);
  EXPECT_GT(large, small);
}

TEST(LiveOverlayFeedTest, GrowsStableMaskAndEndsAtTraceMembership) {
  constexpr NodeId kN0 = 192;
  dynamics::MutableOverlay overlay(kN0, 6, 0, 5);
  util::Xoshiro256 place_rng(17);
  std::vector<bool> byz = graph::random_byzantine_mask(
      kN0, sim::derive_byz_count(kN0, 0.6), place_rng);

  dynamics::ChurnEpoch epoch;
  epoch.joins = 10;
  epoch.sybil_joins = 2;
  epoch.leaves = 8;
  proto::ProtocolConfig cfg;
  const auto schedule = dynamics::derive_schedule(
      epoch, dynamics::expected_horizon_rounds(kN0, 6, cfg.schedule), 9);

  dynamics::MidRunConfig mid_cfg;
  mid_cfg.policy = proto::MembershipPolicy::kReadmitNextPhase;
  util::Xoshiro256 churn_rng(23);
  auto strategy = adv::make_strategy(adv::StrategyKind::kFakeColor);
  const auto out = dynamics::run_counting_midrun(
      overlay, byz, *strategy, cfg, 77, schedule, mid_cfg,
      adv::ChurnAdversary::kNone, churn_rng);

  // Every scheduled event lands, mid-run or flushed.
  EXPECT_EQ(out.stats.events_applied + out.stats.events_flushed,
            schedule.events.size());
  EXPECT_EQ(out.stats.joins, 12u);
  EXPECT_EQ(out.stats.leaves, 8u);
  EXPECT_EQ(overlay.num_alive(), kN0 + 12 - 8);
  EXPECT_EQ(byz.size(), overlay.id_bound());
  // Run-id space: snapshot members + every scheduled joiner, all mapped
  // to stable ids after the flush.
  ASSERT_EQ(out.run.status.size(), kN0 + 12u);
  ASSERT_EQ(out.run_to_stable.size(), kN0 + 12u);
  for (const NodeId s : out.run_to_stable) {
    EXPECT_NE(s, graph::kInvalidNode);
  }
  // Sybil joiner slots carry the Byzantine flag through to the stable mask.
  std::uint32_t sybils = 0;
  for (NodeId v = kN0; v < out.run_byz.size(); ++v) {
    if (out.run_byz[v]) {
      ++sybils;
      EXPECT_TRUE(byz[out.run_to_stable[v]]);
    }
  }
  EXPECT_EQ(sybils, 2u);
  // Departed members are marked and carry no estimate.
  std::uint32_t departed = 0;
  for (std::size_t v = 0; v < out.run.status.size(); ++v) {
    if (out.run.status[v] == proto::NodeStatus::kDeparted) {
      ++departed;
      EXPECT_EQ(out.run.estimate[v], 0u);
      EXPECT_FALSE(overlay.is_alive(out.run_to_stable[v]));
    }
  }
  EXPECT_GT(departed, 0u);
}

TEST(MidRunChurnModeTest, ReplaysTraceAndReportsMidRunStats) {
  for (const auto policy : {proto::MembershipPolicy::kTreatAsSilent,
                            proto::MembershipPolicy::kReadmitNextPhase}) {
    dynamics::ChurnRunConfig cfg;
    cfg.trace.n0 = 192;
    cfg.trace.epochs = 4;
    cfg.trace.arrival_rate = 8.0;
    cfg.trace.departure_rate = 8.0;
    cfg.trace.min_n = 96;
    cfg.trace.seed = 3;
    cfg.d = 6;
    cfg.delta = 0.7;
    cfg.seed = 3;
    cfg.mid_run.enabled = true;
    cfg.mid_run.policy = policy;

    const auto result = dynamics::run_churn(cfg);
    ASSERT_EQ(result.epochs.size(), cfg.trace.epochs);
    std::uint64_t events = 0;
    for (std::uint32_t e = 0; e < result.epochs.size(); ++e) {
      const auto& ep = result.epochs[e];
      EXPECT_EQ(ep.n_true, result.trace.epochs[e].n_after);
      EXPECT_TRUE(ep.estimated);
      EXPECT_GT(ep.messages, 0u);
      events += ep.midrun_events_applied + ep.midrun_events_flushed;
      if (policy == proto::MembershipPolicy::kTreatAsSilent) {
        EXPECT_EQ(ep.midrun_admitted, 0u);
        EXPECT_EQ(ep.midrun_verifier_refreshes, 0u);
        EXPECT_EQ(ep.verify_rows_recomputed, 0u);
      }
    }
    EXPECT_GT(events, 0u);
  }
}

TEST(ComposedMidRunTest, InjectedSnapshotLeavesOutcomeUnchanged) {
  // Snapshot injection is pure plumbing: a mid-run trial executed on a
  // MutableOverlay::snapshot() handed in through MidRunComposed must
  // produce the same MidRunOutcome bit for bit as the standalone feed,
  // which takes its own.
  constexpr NodeId kN0 = 256;
  constexpr std::uint32_t kD = 6;
  for (std::uint64_t seed = 5; seed <= 7; ++seed) {
    dynamics::MutableOverlay inj_overlay(kN0, kD, 0, util::mix_seed(seed, 1));
    dynamics::MutableOverlay ref_overlay(kN0, kD, 0, util::mix_seed(seed, 1));

    util::Xoshiro256 place_rng(util::mix_seed(seed, 2));
    std::vector<bool> inj_byz = graph::random_byzantine_mask(
        kN0, sim::derive_byz_count(kN0, 0.7), place_rng);
    std::vector<bool> ref_byz = inj_byz;

    dynamics::ChurnEpoch epoch;
    epoch.joins = 6;
    epoch.sybil_joins = 1;
    epoch.leaves = 5;
    proto::ProtocolConfig cfg;
    const auto schedule = adv::derive_adversarial_schedule(
        epoch,
        dynamics::expected_horizon_rounds(kN0, kD, cfg.schedule),
        util::mix_seed(seed, 3), adv::MidRunScheduleStrategy::kUniform, kD,
        cfg.schedule);
    dynamics::MidRunConfig mid_cfg;

    const auto snap = inj_overlay.snapshot();
    dynamics::MidRunComposed composed;
    composed.snapshot = &snap;
    util::Xoshiro256 inj_rng(util::mix_seed(seed, 4));
    util::Xoshiro256 ref_rng(util::mix_seed(seed, 4));
    auto inj_strategy = adv::make_strategy(adv::StrategyKind::kFakeColor);
    auto ref_strategy = adv::make_strategy(adv::StrategyKind::kFakeColor);
    const auto injected_out = dynamics::run_counting_midrun(
        inj_overlay, inj_byz, *inj_strategy, cfg, 77, schedule, mid_cfg,
        adv::ChurnAdversary::kNone, inj_rng, &composed);
    const auto standalone_out = dynamics::run_counting_midrun(
        ref_overlay, ref_byz, *ref_strategy, cfg, 77, schedule, mid_cfg,
        adv::ChurnAdversary::kNone, ref_rng);
    EXPECT_GT(injected_out.stats.events_applied, 0u) << "seed " << seed;
    EXPECT_TRUE(injected_out == standalone_out) << "seed " << seed;
    EXPECT_EQ(inj_byz, ref_byz);
  }
}

TEST(ComposedMidRunTest, EngineOracleHoldsWithAdaptiveCadenceOn) {
  // Adaptive cadence + engine oracle must keep the two protocol tiers
  // bitwise identical per epoch (the E26 contract extended to the
  // composed tier).
  dynamics::ChurnRunConfig cfg;
  cfg.trace.n0 = 256;
  cfg.trace.epochs = 3;
  cfg.trace.arrival_rate = 4.0;
  cfg.trace.departure_rate = 4.0;
  cfg.trace.min_n = 128;
  cfg.trace.seed = 21;
  cfg.d = 6;
  cfg.seed = 21;
  cfg.run_engine = true;
  cfg.mid_run.enabled = true;
  cfg.incremental.adaptive = true;

  const auto result = dynamics::run_churn(cfg);
  for (const auto& ep : result.epochs) {
    EXPECT_TRUE(ep.engine_match)
        << "engine diverged from fastpath with adaptive cadence on";
  }
}

TEST(ComposedMidRunTest, AdaptiveCadenceSkipsQuietEpochsMidRun) {
  dynamics::ChurnRunConfig cfg;
  cfg.trace.n0 = 512;
  cfg.trace.epochs = 6;
  cfg.trace.arrival_rate = 1.0;
  cfg.trace.departure_rate = 1.0;
  cfg.trace.min_n = 256;
  cfg.trace.seed = 27;
  cfg.d = 6;
  cfg.seed = 27;
  cfg.mid_run.enabled = true;
  cfg.incremental.adaptive = true;
  cfg.incremental.drift_threshold = 0.05;  // ~0.4% churn/epoch: mostly skip

  const auto result = dynamics::run_churn(cfg);
  std::uint32_t estimated = 0;
  std::uint32_t skipped = 0;
  for (std::uint32_t e = 0; e < result.epochs.size(); ++e) {
    const auto& ep = result.epochs[e];
    EXPECT_EQ(ep.n_true, result.trace.epochs[e].n_after)
        << "membership must follow the trace on skipped epochs too";
    if (ep.estimated) {
      ++estimated;
      EXPECT_GT(ep.messages, 0u);
    } else {
      ++skipped;
      EXPECT_EQ(ep.messages, 0u);
      EXPECT_EQ(ep.midrun_events_applied + ep.midrun_events_flushed, 0u)
          << "skipped epochs apply events between runs";
    }
  }
  EXPECT_GE(estimated, 1u);  // epoch 0 always bootstraps
  EXPECT_GT(skipped, 0u) << "adaptive cadence never skipped";
}

TEST(MidRunChurnModeTest, EngineOracleMatchesFastpathPerEpoch) {
  // run_engine is no longer excluded from mid-run mode: it replays every
  // epoch's schedule through the message-level engine and records bitwise
  // agreement — the E26 contract, surfaced per epoch.
  for (const auto schedule :
       {adv::MidRunScheduleStrategy::kUniform,
        adv::MidRunScheduleStrategy::kFrontierLeaves}) {
    dynamics::ChurnRunConfig cfg;
    cfg.trace.n0 = 160;
    cfg.trace.epochs = 3;
    cfg.trace.arrival_rate = 6.0;
    cfg.trace.departure_rate = 6.0;
    cfg.trace.min_n = 96;
    cfg.trace.seed = 11;
    cfg.d = 6;
    cfg.delta = 0.7;
    cfg.seed = 11;
    cfg.run_engine = true;
    cfg.mid_run.enabled = true;
    cfg.mid_run.schedule = schedule;

    const auto result = dynamics::run_churn(cfg);
    ASSERT_EQ(result.epochs.size(), cfg.trace.epochs);
    for (const auto& ep : result.epochs) {
      EXPECT_TRUE(ep.engine_match)
          << "engine diverged from fastpath under mid-run churn ("
          << adv::to_string(schedule) << ")";
    }
  }
}

TEST(MidRunChurnModeTest, EngineOracleRefusesANonAlgorithm2Backend) {
  // The message-level engine replays Algorithm 2 only: asked to replay a
  // run whose backend is BRC it must throw instead of comparing two
  // different algorithms.
  constexpr NodeId kN0 = 128;
  dynamics::MutableOverlay overlay(kN0, 6, 0, 3);
  util::Xoshiro256 place_rng(5);
  std::vector<bool> byz = graph::random_byzantine_mask(
      kN0, sim::derive_byz_count(kN0, 0.7), place_rng);
  dynamics::ChurnEpoch epoch;
  epoch.joins = 4;
  epoch.leaves = 4;
  proto::ProtocolConfig cfg;
  const auto schedule = dynamics::derive_schedule(
      epoch, dynamics::expected_horizon_rounds(kN0, 6, cfg.schedule), 7);
  const auto brc = proto::make_estimator("brc", cfg);
  dynamics::MidRunConfig mid_cfg;
  mid_cfg.backend = brc.get();
  util::Xoshiro256 churn_rng(9);
  auto strategy = adv::make_strategy(adv::StrategyKind::kFakeColor);
  EXPECT_THROW((void)dynamics::run_counting_midrun_engine(
                   overlay, byz, *strategy, cfg, 11, schedule, mid_cfg,
                   adv::ChurnAdversary::kNone, churn_rng),
               std::invalid_argument);
}

TEST(ComposedMidRunTest, EngineMatchesAcrossSkippedEpochs) {
  // The full composed pipeline — mid-run churn + adaptive cadence +
  // engine oracle — at a size where the cadence skips epochs: the engine
  // oracle must match on every epoch, and the skipping may not be
  // vacuous.
  dynamics::ChurnRunConfig cfg;
  cfg.trace.n0 = 1024;
  cfg.trace.epochs = 5;
  cfg.trace.arrival_rate = 4.0;
  cfg.trace.departure_rate = 4.0;
  cfg.trace.min_n = 512;
  cfg.trace.seed = 33;
  cfg.d = 6;
  cfg.seed = 33;
  cfg.mid_run.enabled = true;
  cfg.run_engine = true;
  cfg.incremental.adaptive = true;
  const auto result = dynamics::run_churn(cfg);
  bool any_skipped = false;
  for (const auto& ep : result.epochs) {
    EXPECT_TRUE(ep.engine_match);
    any_skipped = any_skipped || !ep.estimated;
  }
  EXPECT_TRUE(any_skipped) << "adaptive cadence never skipped an epoch";
}

}  // namespace
}  // namespace byz
