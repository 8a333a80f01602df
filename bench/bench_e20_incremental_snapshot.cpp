// E20 — incremental vs full snapshot maintenance: the epoch-to-epoch
// sublinear hot path. MutableOverlay::snapshot() re-runs one bounded BFS
// per node every epoch; IncrementalEngine recomputes only the balls within
// the dirty radius (k-1) of a splice endpoint and reuses the rest, then
// assembles the CSR arrays directly. Every timed pair is also compared
// bitwise (overlays_identical), so the speedup column is a claim about an
// EQUAL result, not an approximation. The guard metric feeds the CI perf
// step: incremental must beat the full rebuild at the lowest churn rate.
#include "bench_common.hpp"
#include "incremental/engine.hpp"

namespace {

using namespace byz;
using namespace byz::bench;

struct Cell {
  double full_ms = 0.0;
  double incr_ms = 0.0;
  std::uint64_t recomputed = 0;
  std::uint64_t reused = 0;
  bool identical = true;
};

/// One trial: replay `epochs` of churn at `rate` ops/node/epoch, timing
/// the full rebuild and the incremental snapshot on the SAME overlay
/// state. Trials run serially: this scenario measures wall-time.
Cell run_trial(graph::NodeId n0, double rate, std::uint32_t epochs,
               std::uint64_t seed) {
  Cell cell;
  dynamics::MutableOverlay overlay(n0, 6, 0, seed);
  incremental::IncrementalEngine engine(overlay);
  util::Xoshiro256 rng(util::mix_seed(seed, 0xE20));
  (void)engine.snapshot();  // bootstrap (full rebuild on both paths)
  const auto base = engine.stats();  // exclude the bootstrap from accounting
  for (std::uint32_t e = 0; e < epochs; ++e) {
    const auto ops = std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(rate * overlay.num_alive()));
    for (std::uint32_t i = 0; i < ops; ++i) {
      switch (rng.below(3)) {
        case 0:
          overlay.join(rng);
          break;
        case 1:
          if (overlay.num_alive() > n0 / 2) {
            overlay.leave(overlay.random_alive(rng));
            break;
          }
          [[fallthrough]];
        default:
          overlay.rewire(overlay.random_alive(rng), rng);
          break;
      }
    }
    // The full rebuild builds G on its first read; the incremental
    // snapshot hands G over ready, so that read is part of the full cost.
    util::Timer t_full;
    const auto full = overlay.snapshot();
    (void)full.overlay.g();
    cell.full_ms += t_full.milliseconds();
    util::Timer t_incr;
    const auto incr = engine.snapshot();
    cell.incr_ms += t_incr.milliseconds();
    cell.identical = cell.identical &&
                     incremental::overlays_identical(full.overlay,
                                                     incr.overlay);
  }
  cell.recomputed = engine.stats().balls_recomputed - base.balls_recomputed;
  cell.reused = engine.stats().balls_reused - base.balls_reused;
  return cell;
}

void run_e20(RunContext& ctx) {
  const auto sizes = analysis::pow2_sizes(10, ctx.max_exp(14));
  const auto trials = ctx.trials(3);
  constexpr std::uint32_t kEpochs = 6;
  const std::vector<double> rates = {0.001, 0.01, 0.05};

  util::Table table("E20: incremental vs full snapshot rebuild, d=6 (" +
                    std::to_string(trials) + " trials, " +
                    std::to_string(kEpochs) + " epochs each)");
  table.columns({"n0", "churn/epoch", "full ms/ep", "incr ms/ep", "speedup",
                 "balls redone", "identical"});

  double guard_speedup = 0.0;
  for (const auto n0 : sizes) {
    for (const double rate : rates) {
      Cell sum;
      for (std::uint32_t t = 0; t < trials; ++t) {
        const auto cell = run_trial(
            n0, rate, kEpochs,
            bench_core::TrialScheduler::trial_seed(0xE20 + n0, t));
        sum.full_ms += cell.full_ms;
        sum.incr_ms += cell.incr_ms;
        sum.recomputed += cell.recomputed;
        sum.reused += cell.reused;
        sum.identical = sum.identical && cell.identical;
      }
      const double epochs_total = static_cast<double>(trials) * kEpochs;
      const double speedup =
          sum.incr_ms > 0.0 ? sum.full_ms / sum.incr_ms : 0.0;
      const double dirty_frac =
          static_cast<double>(sum.recomputed) /
          static_cast<double>(sum.recomputed + sum.reused);
      table.row()
          .cell(std::uint64_t{n0})
          .cell(util::format_double(100.0 * rate, 1) + "%")
          .cell(sum.full_ms / epochs_total, 2)
          .cell(sum.incr_ms / epochs_total, 2)
          .cell(util::format_double(speedup, 1) + "x")
          .cell(util::format_double(100.0 * dirty_frac, 1) + "%")
          .cell(sum.identical ? "yes" : "NO");

      Json j = Json::object();
      j["full_ms"] = sum.full_ms;
      j["incr_ms"] = sum.incr_ms;
      j["speedup"] = speedup;
      j["dirty_frac"] = dirty_frac;
      j["identical"] = sum.identical;
      ctx.metric("snapshot_n" + std::to_string(n0) + "_c" +
                     std::to_string(static_cast<int>(rate * 1000)) + "bp",
                 std::move(j));
      // Guard cell: lowest churn rate at the largest size in this run.
      if (rate == rates.front() && n0 == sizes.back()) {
        guard_speedup = speedup;
        Json g = Json::object();
        g["n"] = std::uint64_t{n0};
        g["churn_bp"] = static_cast<int>(rate * 1000);
        g["speedup"] = speedup;
        g["identical"] = sum.identical;
        ctx.metric("guard", std::move(g));
      }
    }
  }
  table.note("Same mutation state, both snapshot paths timed back to back; "
             "'identical' asserts bitwise equality of the two overlays on "
             "every epoch. The dirty radius is k-1 around each splice "
             "endpoint, so the recomputed fraction — and with it the "
             "incremental cost — scales with the churn rate, not with n. "
             "Guard: incremental beat full " +
             util::format_double(guard_speedup, 1) +
             "x at the lowest churn rate.");
  ctx.emit(table);
}

}  // namespace

BYZBENCH_REGISTER(e20) {
  ScenarioSpec spec;
  spec.id = "e20";
  spec.title = "Incremental snapshot maintenance vs full rebuild";
  spec.claim = "Dirty-ball maintenance: epoch snapshots cost O(churned "
               "state), not O(n) — >=5x over full rebuild at 0.1% churn, "
               "bitwise identical output";
  spec.grid = {{"churn_rate", {"0.001", "0.01", "0.05"}},
               {"epochs", {"6"}},
               pow2_axis(10, 14)};
  spec.base_trials = 3;
  spec.metrics = {"snapshot_n<k>_c<bp>.speedup", "guard.speedup"};
  spec.run = run_e20;
  return spec;
}
