#include "bench_core/registry.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "analysis/experiment.hpp"
#include "bench_core/context.hpp"
#include "bench_core/orchestrator.hpp"
#include "util/table.hpp"

namespace byz::bench_core {
namespace {

ScenarioSpec make_spec(std::string id, std::string title) {
  ScenarioSpec spec;
  spec.id = std::move(id);
  spec.title = std::move(title);
  spec.run = [](RunContext&) {};
  return spec;
}

TEST(Registry, AddAndFind) {
  Registry registry;
  registry.add(make_spec("e01", "categories"));
  registry.add(make_spec("e02", "expansion"));
  ASSERT_NE(registry.find("e01"), nullptr);
  EXPECT_EQ(registry.find("e01")->title, "categories");
  EXPECT_EQ(registry.find("e99"), nullptr);
  EXPECT_EQ(registry.size(), 2u);
}

TEST(Registry, RejectsDuplicatesAndInvalidSpecs) {
  Registry registry;
  registry.add(make_spec("e01", "categories"));
  EXPECT_THROW(registry.add(make_spec("e01", "again")), std::invalid_argument);
  EXPECT_THROW(registry.add(make_spec("", "anonymous")), std::invalid_argument);
  ScenarioSpec no_run;
  no_run.id = "e50";
  EXPECT_THROW(registry.add(std::move(no_run)), std::invalid_argument);
}

TEST(Registry, AllIsSortedById) {
  Registry registry;
  registry.add(make_spec("e10", "ten"));
  registry.add(make_spec("e02", "two"));
  registry.add(make_spec("e07", "seven"));
  const auto all = registry.all();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0]->id, "e02");
  EXPECT_EQ(all[1]->id, "e07");
  EXPECT_EQ(all[2]->id, "e10");
}

TEST(Registry, MatchFiltersByIdAndTitle) {
  Registry registry;
  registry.add(make_spec("e07", "message accounting"));
  registry.add(make_spec("e08", "accuracy under attack"));
  registry.add(make_spec("e14", "kernel timings"));

  EXPECT_EQ(registry.match("").size(), 3u);           // empty = all
  ASSERT_EQ(registry.match("e07").size(), 1u);
  EXPECT_EQ(registry.match("e07")[0]->id, "e07");
  ASSERT_EQ(registry.match("ACCURACY").size(), 1u);   // case-insensitive title
  EXPECT_EQ(registry.match("ACCURACY")[0]->id, "e08");
  EXPECT_EQ(registry.match("e07,e14").size(), 2u);    // comma = union
  EXPECT_EQ(registry.match("nomatch").size(), 0u);
  EXPECT_EQ(registry.match(",,").size(), 3u);         // degenerate = all
}

TEST(Registry, MatchAcceptsPipeSeparatorsAndGlobStars) {
  Registry registry;
  registry.add(make_spec("e17", "steady churn"));
  registry.add(make_spec("e18", "burst recovery"));
  registry.add(make_spec("e19", "sybil joins"));

  // The CI smoke invocation style: shell-glob habits must keep working.
  const auto hits = registry.match("e17*|e18*|e19*");
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0]->id, "e17");
  EXPECT_EQ(hits[2]->id, "e19");
  EXPECT_EQ(registry.match("e17|e19").size(), 2u);
  EXPECT_EQ(registry.match("*churn*").size(), 1u);   // stars stripped
  EXPECT_EQ(registry.match("||,|").size(), 3u);      // degenerate = all
}

TEST(Registry, GlobalInstanceIsSingleton) {
  EXPECT_EQ(&Registry::instance(), &Registry::instance());
}

TEST(Orchestrator, ListRendersEveryScenario) {
  Registry registry;
  auto spec = make_spec("e01", "categories");
  spec.grid = {{"delta", {"0.5", "0.7"}}};
  spec.metrics = {"safe_frac"};
  registry.add(std::move(spec));
  const auto listing = list_scenarios(registry);
  EXPECT_NE(listing.find("e01"), std::string::npos);
  EXPECT_NE(listing.find("categories"), std::string::npos);
  EXPECT_NE(listing.find("delta(2)"), std::string::npos);
  EXPECT_NE(listing.find("safe_frac"), std::string::npos);
}

/// A tiny deterministic scenario exercising tables + metrics + trials.
ScenarioSpec synthetic_scenario() {
  ScenarioSpec spec;
  spec.id = "esynth";
  spec.title = "synthetic orchestrator probe";
  spec.base_trials = 4;
  spec.run = [](RunContext& ctx) {
    sim::TrialConfig cfg;
    cfg.overlay.n = 256;
    cfg.overlay.d = 6;
    cfg.delta = 0.7;
    cfg.seed = 11;
    const auto sweep =
        analysis::sweep_trials(cfg, ctx.trials(4), ctx.scheduler());
    util::Table table("synthetic");
    table.columns({"trial", "rounds"});
    std::vector<double> ratios;
    for (std::size_t t = 0; t < sweep.results.size(); ++t) {
      const auto& r = sweep.results[t];
      ctx.count_messages(r.run.instr);
      table.row().cell(std::uint64_t{t}).cell(r.run.flood_rounds);
      ratios.push_back(r.accuracy.mean_ratio);
    }
    ctx.emit(table);
    ctx.record_accuracy("ratio", ratios);
  };
  return spec;
}

std::string run_synthetic_raw(unsigned jobs, const std::string& dir) {
  Registry registry;
  registry.add(synthetic_scenario());
  RunOptions opts;
  opts.jobs = jobs;
  opts.json_out = dir;
  opts.quiet = true;
  const auto outcomes = run_scenarios(registry, opts);
  EXPECT_EQ(outcomes.size(), 1u);
  EXPECT_TRUE(outcomes[0].ok) << outcomes[0].error;
  std::ifstream in(dir + "/BENCH_esynth.json");
  EXPECT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

Json run_synthetic(unsigned jobs, const std::string& dir) {
  auto parsed = Json::parse(run_synthetic_raw(jobs, dir));
  EXPECT_TRUE(parsed.has_value());
  return parsed.value_or(Json());
}

TEST(Orchestrator, WritesSchemaValidJsonManifest) {
  const std::string dir = ::testing::TempDir();
  const auto doc = run_synthetic(2, dir);
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("schema")->as_string(), "byzbench/v1");
  EXPECT_EQ(doc.find("experiment")->as_string(), "esynth");
  EXPECT_TRUE(doc.find("ok")->as_bool());
  ASSERT_NE(doc.find("tables"), nullptr);
  ASSERT_EQ(doc.find("tables")->size(), 1u);
  const auto& table = doc.find("tables")->at(0);
  EXPECT_EQ(table.find("title")->as_string(), "synthetic");
  EXPECT_EQ(table.find("columns")->size(), 2u);
  EXPECT_EQ(table.find("rows")->size(), 4u);
  // count_messages records message totals; record_accuracy adds quantiles.
  const auto* metrics = doc.find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_NE(metrics->find("messages"), nullptr);
  EXPECT_GT(metrics->find("messages")->find("total_messages")->as_number(), 0.0);
  const auto* ratio = metrics->find("accuracy")->find("ratio");
  ASSERT_NE(ratio, nullptr);
  EXPECT_EQ(ratio->find("count")->as_number(), 4.0);
  // Volatile facts (jobs, wall-time) live in the RUNMETA sidecar, never in
  // the BENCH manifest.
  EXPECT_EQ(doc.find("wall_seconds"), nullptr);
  EXPECT_EQ(doc.find("jobs"), nullptr);
  std::ifstream meta_in(dir + "/RUNMETA_esynth.json");
  ASSERT_TRUE(meta_in.good());
  std::stringstream meta_buf;
  meta_buf << meta_in.rdbuf();
  const auto meta = Json::parse(meta_buf.str()).value_or(Json());
  ASSERT_TRUE(meta.is_object());
  EXPECT_EQ(meta.find("schema")->as_string(), "byzbench/meta/v1");
  EXPECT_EQ(meta.find("jobs")->as_number(), 2.0);
  EXPECT_GE(meta.find("wall_seconds")->as_number(), 0.0);
}

TEST(Orchestrator, ManifestsBitwiseIdenticalAcrossJobCounts) {
  // The whole BENCH manifest — byte for byte — must match between a serial
  // and a parallel run of the same scenario + seeds.
  const auto raw1 = run_synthetic_raw(1, ::testing::TempDir());
  const auto raw8 = run_synthetic_raw(8, ::testing::TempDir());
  EXPECT_EQ(raw1, raw8);
}

TEST(Orchestrator, ReportsScenarioFailure) {
  // A guard scenario records its guard and then throws when the guard does
  // not hold: the run fails, and the manifest still carries the guard.
  Registry registry;
  auto spec = make_spec("eboom", "guard fails");
  spec.run = [](RunContext& ctx) {
    Json guard = Json::object();
    guard["identical"] = false;
    guard["compared"] = std::uint64_t{3};
    ctx.metric("guard", std::move(guard));
    throw std::runtime_error("kaput");
  };
  registry.add(std::move(spec));
  const std::string dir = ::testing::TempDir() + "/eboom";
  RunOptions opts;
  opts.json_out = dir;
  opts.quiet = true;
  const auto outcomes = run_scenarios(registry, opts);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_FALSE(outcomes[0].ok);
  EXPECT_EQ(outcomes[0].error, "kaput");
  EXPECT_EQ(outcomes[0].json_path, dir + "/BENCH_eboom.json");
  const auto summary = summarize_outcomes(outcomes);
  EXPECT_NE(summary.find("FAILED: kaput"), std::string::npos);

  std::ifstream in(dir + "/BENCH_eboom.json");
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const auto doc = Json::parse(buffer.str()).value_or(Json());
  ASSERT_TRUE(doc.is_object());
  EXPECT_FALSE(doc.find("ok")->as_bool());
  EXPECT_EQ(doc.find("error")->as_string(), "kaput");
  const auto* guard = doc.find("metrics")->find("guard");
  ASSERT_NE(guard, nullptr);
  EXPECT_FALSE(guard->find("identical")->as_bool());
  EXPECT_EQ(guard->find("compared")->as_number(), 3.0);
}

TEST(Orchestrator, TrialCountPastUint32FailsTheScenario) {
  // 4 x 1e300 trials cannot be cast to a count: the scenario fails with
  // the message instead of running a wrapped number of trials.
  Registry registry;
  auto spec = make_spec("ehuge", "huge scale");
  spec.run = [](RunContext& ctx) { (void)ctx.trials(4); };
  registry.add(std::move(spec));
  RunOptions opts;
  opts.scale = 1e300;
  opts.quiet = true;
  const auto outcomes = run_scenarios(registry, opts);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_FALSE(outcomes[0].ok);
  EXPECT_EQ(outcomes[0].error,
            "trials(4) at scale 1e+300 is not a trial count in [1, 2^32 - 1]");
  EXPECT_NE(summarize_outcomes(outcomes).find("FAILED: trials(4) at scale"),
            std::string::npos);
}

}  // namespace
}  // namespace byz::bench_core
