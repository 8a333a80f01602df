// E5 — Algorithm 1 estimate quality in the clean setting (Lemmas 11 + 13):
// every node decides, estimates are a constant factor of log2 n, and the
// factor is stable across two orders of magnitude in n.
#include "bench_common.hpp"

namespace {

using namespace byz;
using namespace byz::bench;

void run_e05(RunContext& ctx) {
  const auto sizes = analysis::pow2_sizes(10, ctx.max_exp(15));
  const auto t = ctx.trials(5);
  // Every eps runs on the same (size x trial) overlays: build each once.
  const auto overlays =
      ctx.scheduler().map(sizes.size() * t, [&](std::uint64_t unit) {
        const auto n = sizes[unit / t];
        return graph::Overlay::build(
            {.n = n, .d = 8, .seed = util::mix_seed(0xE5 + n, unit % t)});
      });

  for (const double eps : {0.05, 0.1, 0.2}) {
    struct Cell {
      analysis::AccuracyAggregate agg;
      util::OnlineStats est_mean;
      util::OnlineStats phases;
      util::OnlineStats rounds;
    };
    // (size x trial) units fan out onto the scheduler; aggregation runs
    // in index order afterwards so --jobs never changes the table.
    const auto runs =
        ctx.scheduler().map(sizes.size() * t, [&](std::uint64_t unit) {
          const auto n = sizes[unit / t];
          const auto trial = static_cast<std::uint32_t>(unit % t);
          proto::ScheduleConfig sched;
          sched.epsilon = eps;
          const auto run = proto::run_basic_counting(
              overlays[unit], util::mix_seed(0xC5, trial), sched);
          return std::make_pair(proto::summarize_accuracy(run, n),
                                std::make_pair(run.phases_executed,
                                               run.flood_rounds));
        });

    util::Table table("E5: Algorithm 1 accuracy, eps=" +
                      util::format_double(eps, 2) + " (d=8, " +
                      std::to_string(t) + " trials)");
    table.columns({"n", "log2 n", "mean est", "est/log2n mean", "min", "max",
                   "in-band frac", "phases", "rounds"});
    std::vector<double> ratios;
    for (std::size_t s = 0; s < sizes.size(); ++s) {
      const auto n = sizes[s];
      Cell cell;
      for (std::uint32_t trial = 0; trial < t; ++trial) {
        const auto& [acc, meta] = runs[s * t + trial];
        cell.agg.add(acc);
        cell.est_mean.add(acc.mean_ratio * lg(n));
        cell.phases.add(meta.first);
        cell.rounds.add(static_cast<double>(meta.second));
        ratios.push_back(acc.mean_ratio);
      }
      table.row()
          .cell(std::uint64_t{n})
          .cell(lg(n), 1)
          .cell(cell.est_mean.mean(), 2)
          .cell(cell.agg.mean_ratio.mean(), 3)
          .cell(cell.agg.min_ratio.mean(), 3)
          .cell(cell.agg.max_ratio.mean(), 3)
          .cell(cell.agg.frac_in_band.mean(), 4)
          .cell(cell.phases.mean(), 1)
          .cell(cell.rounds.mean(), 0);
    }
    table.note("Constant-factor estimate of log n: the ratio column must be "
               "flat in n (Theorem 1, clean case). Termination tracks "
               "diameter(H) ~ log n / log(d-1), i.e. ratio ~ 1/log2(7) = 0.36.");
    ctx.emit(table);
    ctx.record_accuracy("eps" + util::format_double(eps, 2), ratios);
  }
}

}  // namespace

BYZBENCH_REGISTER(e05) {
  ScenarioSpec spec;
  spec.id = "e05";
  spec.title = "Algorithm 1 clean accuracy";
  spec.claim = "Lemmas 11+13: all nodes decide within a constant factor of "
               "log2 n, flat in n";
  spec.grid = {{"eps", {"0.05", "0.1", "0.2"}}, pow2_axis(10, 15)};
  spec.base_trials = 5;
  spec.metrics = {"accuracy.eps0.05", "accuracy.eps0.10", "accuracy.eps0.20"};
  spec.run = run_e05;
  return spec;
}
