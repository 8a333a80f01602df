// Protocol trace: a narrated, phase-by-phase view of one Algorithm-2 run —
// useful for building intuition about the termination predicate. Enables
// trace logging (stderr) and prints the distribution of decision phases
// plus the per-phase schedule (alpha_i, subphases, rounds).
//
//   $ ./protocol_trace [--n=2048] [--d=8] [--delta=0.6] [--seed=5]
//                      [--strategy=fake-color]
#include <cmath>
#include <iostream>

#include "byzcount.hpp"

namespace {

byz::adv::StrategyKind parse_strategy(const std::string& name) {
  for (const auto kind : byz::adv::all_strategies()) {
    if (name == byz::adv::to_string(kind)) return kind;
  }
  throw std::invalid_argument("unknown strategy: " + name +
                              " (try honest, fake-color, suppress, "
                              "topology-liar, crash-max, adaptive)");
}

int run(int argc, char** argv) {
  using namespace byz;

  util::ArgParser args("protocol_trace", "narrated Algorithm-2 run");
  args.add_option("n", "network size", "2048");
  args.add_option("d", "H-degree", "8");
  args.add_option("delta", "Byzantine exponent", "0.6");
  args.add_option("seed", "trial seed", "5");
  args.add_option("strategy", "adversary strategy", "fake-color");
  if (!args.parse(argc, argv)) return 0;

  util::set_log_level(util::LogLevel::kTrace);  // narrate phases to stderr

  const auto n = static_cast<graph::NodeId>(args.integer("n"));
  const auto d = static_cast<std::uint32_t>(args.integer("d"));
  const auto seed = static_cast<std::uint64_t>(args.integer("seed"));

  graph::OverlayParams params;
  params.n = n;
  params.d = d;
  params.seed = seed;
  const auto overlay = graph::Overlay::build(params);
  util::Xoshiro256 rng(seed ^ 0xB12);
  const auto byz = graph::random_byzantine_mask(
      n, sim::derive_byz_count(n, args.real("delta")), rng);
  const auto strategy = adv::make_strategy(parse_strategy(args.str("strategy")));

  // The schedule the nodes will follow (they all know i and j, §3.1).
  proto::ProtocolConfig cfg;
  util::Table sched("Phase schedule (eps=" +
                    util::format_double(cfg.schedule.epsilon, 2) + ", d=" +
                    std::to_string(d) + ")");
  sched.columns({"phase i", "alpha_i", "subphases", "flood rounds",
                 "continue threshold"});
  for (std::uint32_t i = 1; i <= 8; ++i) {
    sched.row()
        .cell(i)
        .cell(proto::alpha_i(i, d, cfg.schedule))
        .cell(proto::subphases_in_phase(i, d, cfg.schedule))
        .cell(proto::rounds_in_phase(i, d, cfg.schedule))
        .cell(proto::continue_threshold(i, d), 2);
  }
  std::cout << sched;

  const auto run =
      proto::run_counting(overlay, byz, *strategy, cfg, seed ^ 0xC01);

  // Decision-phase histogram.
  std::uint32_t max_est = 1;
  for (const auto e : run.estimate) max_est = std::max(max_est, e);
  util::Histogram hist(0.5, max_est + 0.5, max_est);
  for (graph::NodeId v = 0; v < n; ++v) {
    if (run.status[v] == proto::NodeStatus::kDecided) {
      hist.add(static_cast<double>(run.estimate[v]));
    }
  }
  std::cout << "\nDecision-phase histogram (truth: log2 n = "
            << util::format_double(std::log2(static_cast<double>(n)), 2)
            << ", diameter-ish reference log2(n)/log2(d-1) = "
            << util::format_double(
                   std::log2(static_cast<double>(n)) / std::log2(d - 1.0), 2)
            << "):\n"
            << hist.ascii(48);

  const auto acc = proto::summarize_accuracy(run, n);
  std::cout << "\ndecided=" << acc.decided << " crashed=" << acc.crashed
            << " undecided=" << acc.undecided
            << " | mean ratio=" << util::format_double(acc.mean_ratio, 3)
            << " | rounds=" << run.flood_rounds
            << " | injections accepted/caught="
            << run.instr.injections_accepted << "/"
            << run.instr.injections_caught << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    BYZ_ERROR << "protocol_trace: " << e.what();
    return 2;
  }
}
