// E7 — Message accounting ("small-sized messages", §2.1): per-node
// per-round fan-out is bounded by the constant d, payloads are O(1) ids +
// O(log n) bits, and the message-level engine's per-round volumes confirm
// the fast path's aggregate accounting (the equivalence suite asserts exact
// equality; here we show the magnitudes).
#include <algorithm>

#include "bench_common.hpp"

namespace {

using namespace byz;
using namespace byz::bench;

void run_e07(RunContext& ctx) {
  {
    const auto sizes = analysis::pow2_sizes(8, std::max(ctx.max_exp(11), 11u));
    struct Row {
      sim::Instrumentation instr;
      std::uint64_t peak = 0;
      double bytes_node_round = 0.0;
    };
    const auto rows = ctx.scheduler().map(sizes.size(), [&](std::uint64_t i) {
      const auto n = sizes[i];
      const auto overlay =
          graph::Overlay::build({.n = n, .d = 6, .seed = 0xE7 + n});
      const auto byz = place_byz(n, 0.7, 0xE7 + n);
      const auto strat = adv::make_strategy(adv::StrategyKind::kFakeColor);
      proto::ProtocolConfig cfg;
      sim::Engine engine(overlay, byz, *strat, cfg, 0xC7);
      const auto run = engine.run();
      Row row;
      row.instr = run.instr;
      for (const auto m : engine.round_messages())
        row.peak = std::max(row.peak, m);
      row.bytes_node_round =
          static_cast<double>(run.instr.total_bytes()) /
          (static_cast<double>(n) * static_cast<double>(run.flood_rounds));
      return row;
    });

    util::Table table("E7a: message-level engine accounting (d=6, fake-color)");
    table.columns({"n", "tokens", "token bytes", "verify msgs", "setup msgs",
                   "peak msgs/round", "max node fan-out", "bytes/node/round"});
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      const auto& row = rows[i];
      table.row()
          .cell(std::uint64_t{sizes[i]})
          .cell(row.instr.token_messages)
          .cell(row.instr.token_bytes)
          .cell(row.instr.verify_messages)
          .cell(row.instr.setup_messages)
          .cell(row.peak)
          .cell(row.instr.max_node_round_sends)
          .cell(row.bytes_node_round, 1);
      ctx.count_messages(row.instr);
    }
    table.note("Max per-node fan-out equals the H-degree d: messages are "
               "'small-sized' (constant ids + O(log n) bits) and per-round "
               "load is constant per node.");
    ctx.emit(table);
  }
  {
    const auto max_exp = std::max(ctx.max_exp(15), 12u);
    const auto sizes = analysis::pow2_sizes(12, max_exp);
    struct Row {
      sim::Instrumentation instr;
      std::uint64_t flood_rounds = 0;
    };
    const auto rows = ctx.scheduler().map(sizes.size(), [&](std::uint64_t i) {
      const auto n = sizes[i];
      const auto overlay =
          graph::Overlay::build({.n = n, .d = 8, .seed = 0xE7B + n});
      const auto byz = place_byz(n, 0.5, 0xE7B + n);
      const auto strat = adv::make_strategy(adv::StrategyKind::kFakeColor);
      proto::ProtocolConfig cfg;
      const auto run = proto::run_counting(overlay, byz, *strat, cfg, 0xC7);
      return Row{run.instr, run.flood_rounds};
    });

    util::Table table("E7b: fast-path aggregate accounting at scale (d=8)");
    table.columns({"n", "tokens", "verify msgs", "verify/token ratio",
                   "total MB", "rounds"});
    std::vector<double> verify_ratio;
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      const auto& row = rows[i];
      table.row()
          .cell(std::uint64_t{sizes[i]})
          .cell(row.instr.token_messages)
          .cell(row.instr.verify_messages)
          .cell(static_cast<double>(row.instr.verify_messages) /
                    static_cast<double>(row.instr.token_messages),
                1)
          .cell(static_cast<double>(row.instr.total_bytes()) / 1e6, 1)
          .cell(row.flood_rounds);
      verify_ratio.push_back(static_cast<double>(row.instr.verify_messages) /
                             static_cast<double>(row.instr.token_messages));
      ctx.count_messages(row.instr);
    }
    table.note("Verification costs a constant factor over the flood "
               "(2|B(w,k-1)| round trips per received token, k and d "
               "constants).");
    ctx.emit(table);
    ctx.metric("verify_per_token", bench_core::quantiles_json(verify_ratio));
  }
}

}  // namespace

BYZBENCH_REGISTER(e07) {
  ScenarioSpec spec;
  spec.id = "e07";
  spec.title = "message accounting: engine vs fast path";
  spec.claim = "S2.1: small-sized messages, per-node fan-out bounded by d, "
               "verification a constant factor over the flood";
  spec.grid = {{"tier", {"engine", "fastpath"}}, pow2_axis(8, 15)};
  spec.base_trials = 1;
  spec.metrics = {"messages", "verify_per_token"};
  spec.run = run_e07;
  return spec;
}
