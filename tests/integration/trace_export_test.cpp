// End-to-end observability contract: tracing a real protocol run yields a
// parseable Chrome trace containing overlay-build, setup, phase, subphase,
// round, decide, refinement, smoothing, trial, snapshot and live Verifier
// refresh spans — and the run's outputs are bitwise identical with tracing
// on or off (the pure read-side invariant of src/obs/obs.hpp, the same
// contract CI pins at the BENCH-manifest level).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "adversary/strategies.hpp"
#include "bench_core/json.hpp"
#include "bench_core/scheduler.hpp"
#include "dynamics/epoch_driver.hpp"
#include "dynamics/midrun.hpp"
#include "graph/categories.hpp"
#include "graph/small_world.hpp"
#include "obs/trace.hpp"
#include "protocols/fastpath.hpp"
#include "protocols/refine.hpp"
#include "sim/runner.hpp"
#include "util/rng.hpp"

namespace byz {
namespace {

struct TracedRun {
  proto::RunResult run;
  std::vector<double> smoothed;
};

/// Overlay build, one Algorithm-2 run, then refine + smooth — the
/// size_service pipeline — with tracing on or off.
/// True iff some `outer` span on `inner`'s thread encloses it.
bool nested_in(const std::vector<obs::TraceEvent>& events,
               const obs::TraceEvent& inner, const std::string& outer) {
  return std::any_of(events.begin(), events.end(), [&](const auto& e) {
    return e.name == outer && e.tid == inner.tid && e.ts_us <= inner.ts_us &&
           inner.ts_us + inner.dur_us <= e.ts_us + e.dur_us;
  });
}

/// The events named `name`.
std::vector<const obs::TraceEvent*> named(
    const std::vector<obs::TraceEvent>& events, const std::string& name) {
  std::vector<const obs::TraceEvent*> out;
  for (const auto& e : events) {
    if (e.name == name) out.push_back(&e);
  }
  return out;
}

TracedRun traced_run(bool trace) {
  obs::set_enabled(trace);
  graph::OverlayParams params;
  params.n = 256;
  params.d = 6;
  params.seed = 7;
  const auto overlay = graph::Overlay::build(params);
  util::Xoshiro256 placement(params.seed ^ 0xB12);
  const auto byz = graph::random_byzantine_mask(
      params.n, sim::derive_byz_count(params.n, 0.5), placement);
  const auto strategy = adv::make_strategy(adv::StrategyKind::kFakeColor);
  proto::ProtocolConfig cfg;
  TracedRun out;
  out.run = proto::run_counting(overlay, byz, *strategy, cfg, 99);
  out.smoothed = proto::smooth_estimates(
      overlay, byz, proto::refine_run(out.run, params.d),
      proto::EstimateLie::kInflate);
  obs::set_enabled(false);
  return out;
}

TEST(TraceExportIntegration, ProtocolRunEmitsPhaseSubphaseAndRoundSpans) {
  obs::reset_trace();
  const auto traced = traced_run(true);

  const auto doc =
      bench_core::Json::parse(obs::chrome_trace_json(obs::trace_snapshot()));
  ASSERT_TRUE(doc.has_value());
  std::set<std::string> names;
  for (const auto& e : doc->find("traceEvents")->elements()) {
    names.insert(e.find("name")->as_string());
  }
  EXPECT_TRUE(names.contains("graph.h_sample"));
  EXPECT_TRUE(names.contains("graph.ball_counts"));
  EXPECT_TRUE(names.contains("graph.g_pass"));
  EXPECT_TRUE(names.contains("count.run"));
  EXPECT_TRUE(names.contains("count.setup"));
  EXPECT_TRUE(names.contains("count.phase"));
  EXPECT_TRUE(names.contains("count.subphase"));
  EXPECT_TRUE(names.contains("flood.subphase"));
  EXPECT_TRUE(names.contains("flood.round"));
  EXPECT_TRUE(names.contains("count.decide"));
  EXPECT_TRUE(names.contains("protocols.refine"));
  EXPECT_TRUE(names.contains("protocols.smooth"));

  // G is built once, by the static run's setup, on the same thread; the
  // degree table then comes off its rows, with no count pass.
  const auto events = obs::trace_snapshot().events;
  const auto g_passes = named(events, "graph.g_pass");
  ASSERT_EQ(g_passes.size(), 1u);
  EXPECT_TRUE(nested_in(events, *g_passes.front(), "count.setup"))
      << "graph.g_pass is not inside count.setup";
  EXPECT_TRUE(named(events, "graph.g_degrees").empty());

  // The flood.subphase spans carry the run's flood cost: every kernel call
  // is one span, worth steps x lanes rounds and its tokens.
  std::uint64_t span_rounds = 0;
  std::uint64_t span_tokens = 0;
  for (const auto& e : doc->find("traceEvents")->elements()) {
    if (e.find("name")->as_string() != "flood.subphase") continue;
    const auto arg = [&e](const char* key) {
      return static_cast<std::uint64_t>(e.find("args")->find(key)->as_number());
    };
    span_rounds += arg("steps") * arg("lanes");
    span_tokens += arg("tokens");
  }
  EXPECT_GT(span_rounds, 0u);
  EXPECT_EQ(span_rounds, traced.run.instr.flood_rounds);
  EXPECT_EQ(span_tokens, traced.run.instr.token_messages);
  obs::reset_trace();
}

TEST(TraceExportIntegration, ScheduledTrialsEmitTrialSpans) {
  obs::reset_trace();
  obs::set_enabled(true);
  const bench_core::TrialScheduler scheduler(2);
  std::atomic<int> ran{0};
  scheduler.for_each(4, [&](std::uint64_t) { ++ran; });
  obs::set_enabled(false);
  EXPECT_EQ(ran.load(), 4);

  const auto snap = obs::trace_snapshot();
  int trial_spans = 0;
  for (const auto& e : snap.events) {
    if (e.name == "bench.trial") ++trial_spans;
  }
  EXPECT_EQ(trial_spans, 4);
  obs::reset_trace();
}

TEST(TraceExportIntegration, TracingDoesNotPerturbTheRun) {
  obs::reset_trace();
  const auto plain = traced_run(false);
  const auto traced = traced_run(true);
  EXPECT_EQ(plain.run.status, traced.run.status);
  EXPECT_EQ(plain.run.estimate, traced.run.estimate);
  EXPECT_EQ(plain.run.phases_executed, traced.run.phases_executed);
  EXPECT_EQ(plain.run.flood_rounds, traced.run.flood_rounds);
  EXPECT_EQ(plain.run.instr, traced.run.instr);
  EXPECT_EQ(plain.smoothed, traced.smoothed);
  obs::reset_trace();
}

/// One readmit-next-phase run with mid-run joins, sybil joins and leaves,
/// traced or not.
dynamics::MidRunOutcome midrun_run(bool trace) {
  obs::set_enabled(trace);
  constexpr graph::NodeId kN0 = 256;
  dynamics::MutableOverlay overlay(kN0, 6, 0, 13);
  util::Xoshiro256 placement(14);
  std::vector<bool> byz = graph::random_byzantine_mask(
      kN0, sim::derive_byz_count(kN0, 0.5), placement);
  dynamics::ChurnEpoch epoch;
  epoch.joins = 6;
  epoch.sybil_joins = 2;
  epoch.leaves = 6;
  proto::ProtocolConfig cfg;
  const auto schedule = dynamics::derive_schedule(
      epoch, dynamics::expected_horizon_rounds(kN0, 6, cfg.schedule), 15);
  dynamics::MidRunConfig mid_cfg;
  mid_cfg.policy = proto::MembershipPolicy::kReadmitNextPhase;
  util::Xoshiro256 churn_rng(16);
  const auto strategy = adv::make_strategy(adv::StrategyKind::kFakeColor);
  auto out = dynamics::run_counting_midrun(
      overlay, byz, *strategy, cfg, 17, schedule, mid_cfg,
      adv::ChurnAdversary::kNone, churn_rng);
  obs::set_enabled(false);
  return out;
}

TEST(TraceExportIntegration, MidRunSetupCountsDegreesAndNeverBuildsG) {
  // The live run's own snapshot nests its ball-count pass; its setup counts
  // G's degrees (one count pass, inside count.setup on its thread) and
  // nothing builds G.
  obs::reset_trace();
  (void)midrun_run(true);
  const auto events = obs::trace_snapshot().events;
  const auto snapshots = named(events, "dynamics.snapshot");
  ASSERT_EQ(snapshots.size(), 1u);
  const auto counts = named(events, "graph.ball_counts");
  ASSERT_EQ(counts.size(), 1u);
  EXPECT_TRUE(nested_in(events, *counts.front(), "dynamics.snapshot"))
      << "graph.ball_counts is not inside dynamics.snapshot";
  const auto degrees = named(events, "graph.g_degrees");
  ASSERT_EQ(degrees.size(), 1u);
  EXPECT_TRUE(nested_in(events, *degrees.front(), "count.setup"))
      << "graph.g_degrees is not inside count.setup";
  EXPECT_TRUE(named(events, "graph.g_pass").empty());
  obs::reset_trace();
}

/// A traced run_churn of three estimating epochs, churned between runs
/// (snapshot churn) or during them (mid-run churn), with no engine oracle.
std::vector<obs::TraceEvent> traced_churn(graph::NodeId n0, bool mid_run) {
  dynamics::ChurnRunConfig cfg;
  cfg.trace.n0 = n0;
  cfg.trace.epochs = 3;
  cfg.trace.arrival_rate = 8.0;
  cfg.trace.departure_rate = 8.0;
  cfg.trace.min_n = n0 / 2;
  cfg.trace.seed = 21;
  cfg.d = 8;
  cfg.seed = 21;
  cfg.mid_run.enabled = mid_run;
  obs::reset_trace();
  obs::set_enabled(true);
  const auto result = dynamics::run_churn(cfg);
  obs::set_enabled(false);
  auto events = obs::trace_snapshot().events;
  obs::reset_trace();
  for (const auto& epoch : result.epochs) EXPECT_TRUE(epoch.estimated);
  return events;
}

TEST(TraceExportIntegration, SnapshotEpochsCountDegreesAndNeverBuildG) {
  // A snapshot-churn epoch is a live run on an empty schedule: its setup
  // counts G's degrees once, inside the epoch, and nothing builds G.
  const auto events = traced_churn(256, /*mid_run=*/false);
  const auto epochs = named(events, "epoch");
  ASSERT_EQ(epochs.size(), 3u);
  const auto degrees = named(events, "graph.g_degrees");
  EXPECT_EQ(degrees.size(), epochs.size());
  for (const auto* span : degrees) {
    EXPECT_TRUE(nested_in(events, *span, "count.setup"))
        << "graph.g_degrees is not inside count.setup";
    EXPECT_TRUE(nested_in(events, *span, "epoch"))
        << "graph.g_degrees is not inside an epoch";
  }
  EXPECT_TRUE(named(events, "graph.g_pass").empty());
}

TEST(TraceExportIntegration, EmptyScheduleFloodsInFusedLanes) {
  // A live run whose schedule is empty floods as many kernel passes as the
  // static run on the same snapshot, and fewer than its subphases: it
  // fused them into lanes.
  constexpr graph::NodeId kN0 = 512;
  dynamics::MutableOverlay overlay(kN0, 6, 0, 23);
  util::Xoshiro256 placement(24);
  std::vector<bool> byz = graph::random_byzantine_mask(
      kN0, sim::derive_byz_count(kN0, 0.5), placement);
  const auto snapshot = overlay.snapshot();
  std::vector<bool> dense_byz(kN0, false);
  for (graph::NodeId i = 0; i < kN0; ++i) {
    dense_byz[i] = byz[snapshot.dense_to_stable[i]];
  }
  proto::ProtocolConfig cfg;
  const auto strategy = adv::make_strategy(adv::StrategyKind::kFakeColor);

  obs::reset_trace();
  obs::set_enabled(true);
  const auto run = proto::run_counting(snapshot.overlay, dense_byz,
                                       *strategy, cfg, 25);
  obs::set_enabled(false);
  const auto static_passes =
      named(obs::trace_snapshot().events, "flood.subphase").size();

  util::Xoshiro256 churn_rng(26);
  obs::reset_trace();
  obs::set_enabled(true);
  const auto live = dynamics::run_counting_midrun(
      overlay, byz, *strategy, cfg, 25, dynamics::ChurnSchedule{},
      dynamics::MidRunConfig{}, adv::ChurnAdversary::kNone, churn_rng);
  obs::set_enabled(false);
  const auto live_passes =
      named(obs::trace_snapshot().events, "flood.subphase").size();
  obs::reset_trace();

  EXPECT_EQ(live.run, run);
  EXPECT_EQ(live_passes, static_passes);
  EXPECT_LT(live_passes, live.run.subphases_executed);
}

TEST(TraceExportIntegration, EpochChildrenCoverTheEpochSpan) {
  // Span coverage of the one epoch body, in both churn models: the spans
  // an epoch encloses on its thread cover at least 90% of it.
  for (const bool mid_run : {false, true}) {
    const auto events = traced_churn(1024, mid_run);
    const auto epochs = named(events, "epoch");
    ASSERT_EQ(epochs.size(), 3u);
    for (const auto* epoch : epochs) {
      // The union of the enclosed spans' intervals, in microseconds.
      std::vector<std::pair<std::uint64_t, std::uint64_t>> inside;
      for (const auto& e : events) {
        if (&e == epoch || e.tid != epoch->tid || e.ts_us < epoch->ts_us ||
            e.ts_us + e.dur_us > epoch->ts_us + epoch->dur_us) {
          continue;
        }
        inside.emplace_back(e.ts_us, e.ts_us + e.dur_us);
      }
      std::sort(inside.begin(), inside.end());
      std::uint64_t covered = 0;
      std::uint64_t reached = epoch->ts_us;
      for (const auto& [begin, end] : inside) {
        const std::uint64_t from = std::max(begin, reached);
        if (end > from) covered += end - from;
        reached = std::max(reached, end);
      }
      EXPECT_GE(10 * covered, 9 * epoch->dur_us)
          << (mid_run ? "mid-run" : "snapshot") << " epoch of "
          << epoch->dur_us << " us, children cover " << covered << " us";
    }
  }
}

TEST(TraceExportIntegration, LiveVerifierRefreshSpansMatchMidRunStats) {
  obs::reset_trace();
  const auto plain = midrun_run(false);
  const auto traced = midrun_run(true);
  EXPECT_EQ(plain, traced) << "tracing perturbed the mid-run outcome";
  ASSERT_GT(traced.stats.verifier_refreshes, 0u);
  ASSERT_GT(traced.stats.rows_recomputed, 0u);

  const auto doc =
      bench_core::Json::parse(obs::chrome_trace_json(obs::trace_snapshot()));
  ASSERT_TRUE(doc.has_value());
  std::uint64_t spans = 0;
  std::uint64_t span_rows = 0;
  for (const auto& e : doc->find("traceEvents")->elements()) {
    if (e.find("name")->as_string() != "dynamics.verifier_refresh") continue;
    ++spans;
    span_rows +=
        static_cast<std::uint64_t>(e.find("args")->find("rows")->as_number());
  }
  EXPECT_EQ(spans, traced.stats.verifier_refreshes);
  EXPECT_EQ(span_rows, traced.stats.rows_recomputed);
  obs::reset_trace();
}

}  // namespace
}  // namespace byz
