// End-to-end observability contract: tracing a real protocol run yields a
// parseable Chrome trace containing setup, phase, subphase, round, and trial
// spans — and the run's outputs are bitwise identical with tracing on or
// off (the pure read-side invariant of src/obs/obs.hpp, the same contract
// CI pins at the BENCH-manifest level).
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>

#include "adversary/strategies.hpp"
#include "bench_core/json.hpp"
#include "bench_core/scheduler.hpp"
#include "graph/categories.hpp"
#include "graph/small_world.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "protocols/fastpath.hpp"
#include "sim/runner.hpp"
#include "util/rng.hpp"

namespace byz {
namespace {

#if BYZ_OBS_ENABLED
proto::RunResult traced_run(bool trace) {
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
  auto result = proto::run_counting(overlay, byz, *strategy, cfg, 99);
  obs::set_enabled(false);
  return result;
}

TEST(TraceExportIntegration, ProtocolRunEmitsPhaseSubphaseAndRoundSpans) {
  obs::reset_trace();
  obs::reset_metrics();
  (void)traced_run(true);

  const auto doc =
      bench_core::Json::parse(obs::chrome_trace_json(obs::trace_snapshot()));
  ASSERT_TRUE(doc.has_value());
  std::set<std::string> names;
  for (const auto& e : doc->find("traceEvents")->elements()) {
    names.insert(e.find("name")->as_string());
  }
  EXPECT_TRUE(names.contains("count.run"));
  EXPECT_TRUE(names.contains("count.setup"));
  EXPECT_TRUE(names.contains("count.phase"));
  EXPECT_TRUE(names.contains("count.subphase"));
  EXPECT_TRUE(names.contains("flood.subphase"));
  EXPECT_TRUE(names.contains("flood.round"));

  // The metrics registry saw the same run.
  const auto snap = obs::metrics_snapshot();
  bool rounds_counted = false;
  for (const auto& [name, value] : snap.counters) {
    if (name == "flood.rounds") rounds_counted = value > 0;
  }
  EXPECT_TRUE(rounds_counted);
  obs::reset_trace();
  obs::reset_metrics();
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
  obs::reset_metrics();
  const auto plain = traced_run(false);
  const auto traced = traced_run(true);
  EXPECT_EQ(plain.status, traced.status);
  EXPECT_EQ(plain.estimate, traced.estimate);
  EXPECT_EQ(plain.phases_executed, traced.phases_executed);
  EXPECT_EQ(plain.flood_rounds, traced.flood_rounds);
  EXPECT_EQ(plain.instr, traced.instr);
  obs::reset_trace();
  obs::reset_metrics();
}

#endif  // BYZ_OBS_ENABLED

}  // namespace
}  // namespace byz
