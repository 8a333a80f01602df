// E6 — Round complexity (Theorem 1: O(log^3 n)). Measures total flooding
// rounds of Algorithm 1/2 runs against c*log^3 n and fits the exponent of
// rounds = c * (log n)^p by regression on log-log'd data.
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace byz;
using namespace byz::bench;

void run_e06(RunContext& ctx) {
  const auto sizes = analysis::pow2_sizes(10, ctx.max_exp(16));

  struct Row {
    std::uint64_t clean_rounds = 0;
    std::uint64_t attacked_rounds = 0;
    std::uint32_t theory = 0;
    sim::Instrumentation instr;
  };
  const auto rows = ctx.scheduler().map(sizes.size(), [&](std::uint64_t i) {
    const auto n = sizes[i];
    const auto overlay =
        graph::Overlay::build({.n = n, .d = 8, .seed = 0xE6 + n});
    const auto clean = proto::run_basic_counting(overlay, 0xC6);
    const auto byz = place_byz(n, 0.5, 0xE6 + n);
    const auto strat = adv::make_strategy(adv::StrategyKind::kFakeColor);
    proto::ProtocolConfig cfg;
    const auto attacked = proto::run_counting(overlay, byz, *strat, cfg, 0xC6);
    Row row;
    row.clean_rounds = clean.flood_rounds;
    row.attacked_rounds = attacked.flood_rounds;
    row.theory = proto::rounds_through_phase(
        static_cast<std::uint32_t>(lg(n)), 8, cfg.schedule);
    row.instr = attacked.instr;
    return row;
  });

  util::Table table("E6: protocol rounds vs log^3 n (d=8, fake-color attack)");
  table.columns({"n", "log2 n", "rounds clean", "rounds attacked",
                 "rounds/log2^3 n", "theory bound"});
  std::vector<double> xs;
  std::vector<double> ys;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const auto n = sizes[i];
    const double l = lg(n);
    table.row()
        .cell(std::uint64_t{n})
        .cell(l, 1)
        .cell(rows[i].clean_rounds)
        .cell(rows[i].attacked_rounds)
        .cell(static_cast<double>(rows[i].clean_rounds) / (l * l * l), 4)
        .cell(rows[i].theory);
    xs.push_back(std::log(l));
    ys.push_back(std::log(static_cast<double>(rows[i].clean_rounds)));
    ctx.count_messages(rows[i].instr);
  }
  const auto fit = util::linear_fit(xs, ys);
  table.note("Fitted rounds ~ (log n)^p with p = " +
             util::format_double(fit.slope, 2) +
             " (R^2 = " + util::format_double(fit.r_squared, 3) +
             "); Theorem 1 predicts p <= 3. In practice termination at the "
             "diameter keeps the measured exponent well below the bound.");
  ctx.emit(table);
  ctx.metric("round_exponent", Json(fit.slope));
  ctx.metric("round_fit_r2", Json(fit.r_squared));
}

}  // namespace

BYZBENCH_REGISTER(e06) {
  ScenarioSpec spec;
  spec.id = "e06";
  spec.title = "round complexity vs log^3 n";
  spec.claim = "Theorem 1: O(log^3 n) rounds; measured exponent well below 3";
  spec.grid = {pow2_axis(10, 16)};
  spec.base_trials = 1;
  spec.metrics = {"round_exponent", "round_fit_r2", "messages"};
  spec.run = run_e06;
  return spec;
}
