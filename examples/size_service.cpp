// Size service: the full production pipeline a P2P deployment would run —
//   Algorithm 2  →  model-aware refinement  →  one median-smoothing round
// — turning "a constant-factor estimate of log n at most honest nodes"
// into "log n ± O(1), agreed almost everywhere", while Byzantine peers
// attack every stage (fake colors during the protocol, inflated values
// during smoothing).
//
// Runs --trials independent deployments through the shared bench_core
// scheduler (seeds split per trial, results identical for any --jobs).
//
//   $ ./size_service [--n=16384] [--d=8] [--delta=0.5] [--seed=11]
//                    [--trials=4] [--jobs=0]
//
// With --churn the service switches from one-shot deployments to the
// continuous loop of the dynamics subsystem: a churn trace (steady Poisson,
// departure burst, or sybil-join burst) evolves the overlay and the
// protocol re-estimates on every epoch snapshot, reporting fresh vs stale
// accuracy per epoch:
//
//   $ ./size_service --churn [--model=steady|burst|sybil-join]
//                    [--epochs=10] [--arrival=16] [--departure=16]
//                    [--burst-epoch=4] [--burst-fraction=0.25]
//                    [--adversary=none|sybil-burst|targeted-departure|eclipse]
//
// --adaptive replaces the fixed per-epoch cadence with the drift-adaptive
// scheduler: re-estimate when accumulated membership drift crosses
// --drift-bound, coast on stale estimates below it.
//
// --mid-run-churn applies each epoch's joins/leaves DURING its estimation
// run — placed on individual flood rounds — instead of between runs, under
// --policy=silent (membership changes are silence until the next run) or
// --policy=readmit (live neighbor resolution, joiners admitted at phase
// boundaries). --schedule picks the event timing: uniform over the
// expected rounds, frontier-leaves (departures strike the observed flood
// wavefront at its peak rounds), or boundary-join-storm (joins packed
// onto phase-final rounds to stress readmission). --engine-oracle
// additionally replays every epoch's schedule through the message-level
// sim::Engine and reports whether the two tiers agreed bitwise (the E26
// contract); it works in every churn mode. Mid-run churn COMPOSES with
// --adaptive (E28), which coasts through drift-quiet epochs.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <limits>
#include <sstream>

#include "byzcount.hpp"

namespace {

struct StageStats {
  byz::util::OnlineStats ratio;
  byz::util::OnlineStats spread;
  byz::util::OnlineStats coverage;
};

byz::dynamics::ChurnModel parse_model(const std::string& name) {
  for (const auto model : byz::dynamics::all_churn_models()) {
    if (name == byz::dynamics::to_string(model)) return model;
  }
  throw std::invalid_argument("unknown churn model: " + name +
                              " (try steady, burst, sybil-join)");
}

byz::adv::ChurnAdversary parse_churn_adversary(const std::string& name) {
  for (const auto adversary : byz::adv::all_churn_adversaries()) {
    if (name == byz::adv::to_string(adversary)) return adversary;
  }
  throw std::invalid_argument(
      "unknown churn adversary: " + name +
      " (try none, sybil-burst, targeted-departure, eclipse)");
}

byz::proto::MembershipPolicy parse_policy(const std::string& name) {
  if (name == "silent") return byz::proto::MembershipPolicy::kTreatAsSilent;
  if (name == "readmit") {
    return byz::proto::MembershipPolicy::kReadmitNextPhase;
  }
  throw std::invalid_argument("unknown membership policy: " + name +
                              " (try silent, readmit)");
}

/// A 32-bit count flag (--trials, --epochs, --burst-epoch) in
/// [lo, 2^32 - 1]. Checked as a 64-bit value, so a negative count is
/// rejected instead of wrapping into 2^32 - 1.
std::uint32_t parse_count(const byz::util::ArgParser& args,
                          const std::string& flag, std::int64_t lo) {
  const std::int64_t top = std::numeric_limits<std::uint32_t>::max();
  const std::int64_t value = args.integer(flag);
  if (value < lo || value > top) {
    throw std::invalid_argument("--" + flag + " must be in [" +
                                std::to_string(lo) + ", " +
                                std::to_string(top) + "], got " +
                                std::to_string(value));
  }
  return static_cast<std::uint32_t>(value);
}

/// --n: H(n,d) needs n >= 3 (the churn mode's trace generator needs
/// `lo` = dynamics::kMinTraceNodes), and every id must fit below
/// graph::kInvalidNode. Checked as a 64-bit value, so a negative --n is
/// rejected here instead of wrapping, and a bad size exits 2 instead of
/// throwing inside a trial worker.
byz::graph::NodeId parse_network_size(const byz::util::ArgParser& args,
                                      std::int64_t lo = 3) {
  const std::int64_t top = byz::graph::kInvalidNode - 1;
  const std::int64_t n = args.integer("n");
  if (n < lo || n > top) {
    throw std::invalid_argument("--n must be in [" + std::to_string(lo) +
                                ", " + std::to_string(top) + "], got " +
                                std::to_string(n));
  }
  return static_cast<byz::graph::NodeId>(n);
}

/// --d: H is a union of d/2 Hamiltonian cycles, so d must be even and
/// >= 4.
std::uint32_t parse_degree(const byz::util::ArgParser& args) {
  const std::int64_t top = std::numeric_limits<std::uint32_t>::max() - 1;
  const std::int64_t d = args.integer("d");
  if (d < 4 || d > top || d % 2 != 0) {
    throw std::invalid_argument("--d must be an even number in [4, " +
                                std::to_string(top) + "], got " +
                                std::to_string(d));
  }
  return static_cast<std::uint32_t>(d);
}

/// A real-valued flag in [lo, hi], finite (so NaN and infinities are
/// rejected too); `range` spells the interval for the message.
double parse_real(const byz::util::ArgParser& args, const std::string& flag,
                  double lo, double hi, const std::string& range) {
  const double value = args.real(flag);
  if (!std::isfinite(value) || value < lo || value > hi) {
    std::ostringstream got;
    got << value;
    throw std::invalid_argument("--" + flag + " must be in " + range +
                                ", got " + got.str());
  }
  return value;
}

/// --delta, in both modes: derive_byz_count takes n^(1-delta), so delta
/// outside [0, 1] (or NaN) would place a meaningless Byzantine count.
double parse_delta(const byz::util::ArgParser& args) {
  return parse_real(args, "delta", 0.0, 1.0, "[0, 1]");
}

/// --trace-out plumbing: dump the Chrome trace collected so far (no-op
/// when the flag was not given).
void write_trace_if_requested(const std::string& path) {
  if (path.empty()) return;
  if (!byz::obs::write_chrome_trace(path)) {
    BYZ_ERROR << "size_service: cannot write trace file " << path;
  }
}

byz::adv::MidRunScheduleStrategy parse_schedule(const std::string& name) {
  for (const auto s : byz::adv::all_midrun_schedule_strategies()) {
    if (name == byz::adv::to_string(s)) return s;
  }
  throw std::invalid_argument(
      "unknown mid-run schedule: " + name +
      " (try uniform, frontier-leaves, boundary-join-storm)");
}

/// Resolves a --backend / --shadow-backend name against the estimator
/// registry; empty is allowed (means "default"). Exits with the known-name
/// list on an unknown name, like byzbench does.
bool backend_name_ok(const std::string& flag, const std::string& name) {
  if (name.empty() || byz::proto::estimator_registered(name)) return true;
  std::cerr << "size_service: unknown " << flag << " '" << name
            << "'; known:";
  for (const auto& known : byz::proto::estimator_names()) {
    std::cerr << " " << known;
  }
  std::cerr << "\n";
  return false;
}

/// The --churn mode: --trials independent churn runs through the shared
/// scheduler, aggregated per epoch.
int run_churn_mode(const byz::util::ArgParser& args, std::uint32_t trials,
                   unsigned jobs) {
  using namespace byz;

  // The continuous loop (mid-run churn, engine oracle) is Algorithm-2
  // machinery; other backends ride along as the per-epoch cross-algorithm
  // shadow instead of replacing the primary.
  const auto backend = args.str("backend");
  if (!backend.empty() && backend != "algo2") {
    std::cerr << "size_service: --churn runs the algo2 stack as the primary "
                 "estimator; use --shadow-backend="
              << backend << " to cross-check it per epoch\n";
    return 2;
  }
  const auto shadow = args.str("shadow-backend");

  dynamics::ChurnRunConfig cfg;
  cfg.shadow_backend = shadow;
  // Sizes are range-checked here, before any trial starts.
  cfg.trace.n0 = parse_network_size(args, dynamics::kMinTraceNodes);
  cfg.trace.epochs = parse_count(args, "epochs", 1);
  // Rates and bounds are finite; the drift bound is > 0, i.e. at least
  // the smallest positive double.
  constexpr double kMax = std::numeric_limits<double>::max();
  constexpr double kMinPositive = std::numeric_limits<double>::denorm_min();
  cfg.trace.arrival_rate = parse_real(args, "arrival", 0.0, kMax, "[0, inf)");
  cfg.trace.departure_rate =
      parse_real(args, "departure", 0.0, kMax, "[0, inf)");
  cfg.trace.model = parse_model(args.str("model"));
  cfg.trace.burst_epoch = parse_count(args, "burst-epoch", 0);
  cfg.trace.burst_fraction =
      parse_real(args, "burst-fraction", 0.0, 1.0, "[0, 1]");
  cfg.trace.min_n = std::max<graph::NodeId>(cfg.trace.n0 / 4, 16);
  cfg.d = parse_degree(args);
  cfg.delta = parse_delta(args);
  cfg.strategy = adv::StrategyKind::kFakeColor;
  cfg.churn_adversary = parse_churn_adversary(args.str("adversary"));
  const bool adaptive = args.flag("adaptive");
  const bool mid_run = args.flag("mid-run-churn");
  cfg.incremental.adaptive = adaptive;
  cfg.incremental.drift_threshold =
      parse_real(args, "drift-bound", kMinPositive, kMax, "(0, inf)");
  const bool engine_oracle = args.flag("engine-oracle");
  cfg.mid_run.enabled = mid_run;
  cfg.mid_run.policy = parse_policy(args.str("policy"));
  cfg.mid_run.schedule = parse_schedule(args.str("schedule"));
  cfg.run_engine = engine_oracle;
  // Divergence audit: digest every tier at the driver's oracle seams and
  // write byzobs/forensics/v1 reports (under --audit-dir) on divergence.
  // Pure read-side — the table below is identical with or without it.
  cfg.audit = args.flag("audit") || !args.str("audit-dir").empty();
  cfg.audit_dir = args.str("audit-dir");

  const auto seed = static_cast<std::uint64_t>(args.integer("seed"));
  const bench_core::TrialScheduler scheduler(jobs);
  const auto runs = scheduler.map(trials, [&](std::uint64_t t) {
    auto trial_cfg = cfg;
    trial_cfg.trace.seed = bench_core::TrialScheduler::trial_seed(seed, t);
    trial_cfg.seed = trial_cfg.trace.seed;
    return dynamics::run_churn(trial_cfg);
  });

  std::string title =
      "Continuous size service under churn (model: " +
      std::string(dynamics::to_string(cfg.trace.model)) + ", adversary: " +
      adv::to_string(cfg.churn_adversary) + ", " + std::to_string(trials) +
      " deployments, " + std::to_string(scheduler.jobs()) + " workers";
  if (adaptive) title += ", adaptive cadence";
  if (mid_run) {
    title += std::string(", mid-run churn [") +
             proto::to_string(cfg.mid_run.policy) + ", " +
             adv::to_string(cfg.mid_run.schedule) + "]";
  }
  if (engine_oracle) title += ", engine oracle";
  if (!shadow.empty()) title += ", shadow backend: " + shadow;
  if (cfg.audit) title += ", audited";
  util::Table table(title + ")");
  std::vector<std::string> columns = {
      "epoch",         "n(t)",           "byz",  "joins", "leaves",
      "fresh in-band", "stale in-band",  "mean est/log2n", "msgs"};
  if (adaptive) columns.push_back("estimated");
  if (mid_run) columns.push_back("events mid-run");
  if (engine_oracle) columns.push_back("engine ok");
  if (!shadow.empty()) {
    columns.push_back("shadow agree");
    columns.push_back("shadow in-band");
  }
  table.columns(columns);
  for (std::uint32_t e = 0; e < cfg.trace.epochs; ++e) {
    util::OnlineStats n_t, byz_n, joins, leaves, fresh, stale, ratio, msgs;
    util::OnlineStats estimated, applied_frac, engine_ok;
    util::OnlineStats shadow_agree, shadow_band;
    for (const auto& run : runs) {
      const auto& ep = run.epochs[e];
      n_t.add(static_cast<double>(ep.n_true));
      byz_n.add(static_cast<double>(ep.byz_alive));
      joins.add(static_cast<double>(ep.joins));
      leaves.add(static_cast<double>(ep.leaves));
      msgs.add(static_cast<double>(ep.messages));
      estimated.add(ep.estimated ? 1.0 : 0.0);
      if (ep.estimated) {
        fresh.add(ep.fresh.frac_in_band);
        ratio.add(ep.fresh.mean_ratio);
      }
      const std::uint64_t events =
          ep.midrun_events_applied + ep.midrun_events_flushed;
      if (events > 0) {
        applied_frac.add(static_cast<double>(ep.midrun_events_applied) /
                         static_cast<double>(events));
      }
      if (ep.estimated) engine_ok.add(ep.engine_match ? 1.0 : 0.0);
      if (ep.shadow_ran) {
        shadow_agree.add(ep.shadow_agree ? 1.0 : 0.0);
        shadow_band.add(ep.shadow_in_band ? 1.0 : 0.0);
      }
      // Runs with no carried-over estimates contribute nothing (averaging
      // in 0.0 would bias the column toward zero).
      if (ep.stale_nodes > 0) stale.add(ep.stale_frac_in_band);
    }
    auto& row = table.row();
    row.cell(std::uint64_t{e})
        .cell(n_t.mean(), 0)
        .cell(byz_n.mean(), 0)
        .cell(joins.mean(), 1)
        .cell(leaves.mean(), 1)
        .cell(fresh.count() == 0 ? std::string("-")
                                 : util::format_double(fresh.mean(), 4))
        .cell(stale.count() == 0 ? std::string("-")
                                 : util::format_double(stale.mean(), 4))
        .cell(ratio.count() == 0 ? std::string("-")
                                 : util::format_double(ratio.mean(), 3))
        .cell(msgs.mean(), 0);
    if (adaptive) {
      row.cell(util::format_double(100.0 * estimated.mean(), 0) + "%");
    }
    if (mid_run) {
      row.cell(applied_frac.count() == 0
                   ? std::string("-")
                   : util::format_double(100.0 * applied_frac.mean(), 1) +
                         "% live");
    }
    if (engine_oracle) {
      row.cell(engine_ok.count() == 0
                   ? std::string("-")
                   : util::format_double(100.0 * engine_ok.mean(), 0) + "%");
    }
    if (!shadow.empty()) {
      row.cell(shadow_agree.count() == 0
                   ? std::string("-")
                   : util::format_double(100.0 * shadow_agree.mean(), 0) +
                         "%");
      row.cell(shadow_band.count() == 0
                   ? std::string("-")
                   : util::format_double(100.0 * shadow_band.mean(), 0) +
                         "%");
    }
  }
  std::string note =
      "Each epoch applies the trace's joins/leaves to the mutable "
      "overlay (O(d) ring splices per event), snapshots it, and "
      "re-runs Algorithm 2 under the fake-color attack. Stale = "
      "estimates surviving from earlier epochs judged against the "
      "current n(t); epoch 0 has none.";
  if (adaptive) {
    note += " Adaptive cadence: epochs below the drift bound skip "
            "re-estimation and coast on stale estimates.";
  }
  if (mid_run) {
    note += " Mid-run churn: the epoch's events strike DURING the run at "
            "scheduled flood rounds ('events mid-run' = share the run "
            "reached before terminating; the rest apply right after). "
            "Schedule '" +
            std::string(adv::to_string(cfg.mid_run.schedule)) +
            "' decides WHEN the same event budget lands (and, for "
            "frontier-leaves, that departures strike the observed flood "
            "wavefront).";
  }
  if (engine_oracle) {
    note += " Engine oracle: every epoch's run is replayed by the "
            "message-level sim::Engine and 'engine ok' reports bitwise "
            "agreement with the fast path.";
  }
  if (!shadow.empty()) {
    note += " Shadow backend: every estimated epoch also runs '" + shadow +
            "' (an INDEPENDENT algorithm) cold on the post-churn snapshot "
            "alongside a cold algo2 reference; 'shadow agree' is the share "
            "of epochs whose median-estimate ratio landed in the combined "
            "declared band, 'shadow in-band' the share where the shadow "
            "honored its own bound.";
  }
  table.note(note);
  std::cout << table;
  if (cfg.audit) {
    // Surface any forensics the engine-oracle seam wrote.
    for (const auto& run : runs) {
      for (const auto& ep : run.epochs) {
        if (!ep.forensics_path.empty()) {
          BYZ_ERROR << "size_service: divergence forensics written to "
                    << ep.forensics_path;
        }
      }
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace byz;

  util::ArgParser args("size_service", "estimate -> refine -> agree");
  args.add_option("n", "network size (churn: bootstrap size)", "16384");
  args.add_option("d", "H-degree", "8");
  args.add_option("delta", "Byzantine exponent", "0.5");
  args.add_option("seed", "trial-series seed", "11");
  args.add_option("trials", "independent deployments", "4");
  args.add_option("jobs", "scheduler workers (0 = hardware)", "0");
  args.add_flag("churn", "continuous mode: replay a churn trace and "
                         "re-estimate on every epoch snapshot");
  args.add_option("model", "churn model: steady, burst, sybil-join",
                  "steady");
  args.add_option("epochs", "churn epochs", "10");
  args.add_option("arrival", "mean joins per epoch", "16");
  args.add_option("departure", "mean departures per epoch", "16");
  args.add_option("burst-epoch", "epoch of the burst (burst/sybil-join)",
                  "4");
  args.add_option("burst-fraction", "burst size as a fraction of n", "0.25");
  args.add_option("adversary", "churn adversary: none, sybil-burst, "
                               "targeted-departure, eclipse",
                  "none");
  args.add_flag("adaptive", "churn mode: re-estimate when accumulated "
                            "drift crosses --drift-bound instead of every "
                            "epoch");
  args.add_option("drift-bound", "adaptive cadence: drift fraction that "
                                 "triggers re-estimation",
                  "0.05");
  args.add_flag("mid-run-churn", "churn mode: apply each epoch's "
                                 "joins/leaves DURING its estimation run "
                                 "(composes with --adaptive)");
  args.add_option("policy", "mid-run membership policy: silent, readmit",
                  "readmit");
  args.add_option("schedule", "mid-run event timing: uniform, "
                              "frontier-leaves, boundary-join-storm",
                  "uniform");
  args.add_flag("engine-oracle", "churn mode: replay every epoch's run "
                                 "through the message-level engine and "
                                 "report bitwise agreement (works in every "
                                 "churn mode)");
  args.add_flag("audit", "churn mode: record hierarchical digest trails in "
                         "every tier and explain oracle failures with "
                         "byzobs/forensics/v1 reports (pure read-side)");
  args.add_option("audit-dir", "directory for forensics reports (implies "
                               "--audit; \"\" = embed paths only)",
                  "");
  args.add_option("backend",
                  "counting backend for stage 1 (registered proto::Estimator "
                  "name: algo2, algo1, brc; \"\" = algo2). Non-algo2 "
                  "backends skip the refine/smooth stages — those read "
                  "Algorithm-2 phase semantics. In --churn mode only algo2 "
                  "is accepted (use --shadow-backend)",
                  "");
  args.add_option("shadow-backend",
                  "churn mode: per-epoch cross-algorithm shadow oracle — "
                  "runs this backend cold on every estimated epoch's "
                  "snapshot and checks the combined declared accuracy band "
                  "(\"\" = off)",
                  "");
  args.add_option("trace-out",
                  "Chrome trace-event JSON file (Perfetto/chrome://tracing; "
                  "empty = tracing off)",
                  "");

  graph::NodeId n;
  std::uint32_t d;
  double delta;
  std::uint64_t seed;
  std::uint32_t trials;
  unsigned jobs;
  std::string trace_out;
  try {
    if (!args.parse(argc, argv)) return 0;
    trace_out = args.str("trace-out");
    // Both modes size their scheduler from these; checked before any
    // worker starts.
    trials = parse_count(args, "trials", 1);
    jobs = bench_core::TrialScheduler::checked_jobs(args.integer("jobs"));
    // Observability is opt-in and pure read-side (src/obs/obs.hpp):
    // estimates and tables are identical with or without tracing.
    if (!trace_out.empty()) obs::set_enabled(true);
    if (!backend_name_ok("--backend", args.str("backend")) ||
        !backend_name_ok("--shadow-backend", args.str("shadow-backend"))) {
      return 2;
    }
    if (!args.str("shadow-backend").empty() && !args.flag("churn")) {
      std::cerr << "size_service: --shadow-backend is the per-epoch churn "
                   "oracle; it needs --churn (one-shot runs take "
                   "--backend)\n";
      return 2;
    }
    if (args.flag("churn")) {
      const int rc = run_churn_mode(args, trials, jobs);
      write_trace_if_requested(trace_out);
      return rc;
    }
    n = parse_network_size(args);
    d = parse_degree(args);
    delta = parse_delta(args);
    seed = static_cast<std::uint64_t>(args.integer("seed"));
  } catch (const std::exception& e) {
    BYZ_ERROR << "size_service: " << e.what();
    std::cerr << '\n' << args.help();
    return 2;
  }
  const double truth = std::log2(static_cast<double>(n));
  // --backend plumbing: an empty flag keeps the historical pipeline
  // (run_counting + the generic band) bit for bit; naming a backend —
  // including "algo2" — routes stage 1 through the registry and judges it
  // against that backend's OWN declared bound. Refine/smooth read
  // Algorithm-2 phase semantics, so non-algo2 backends stop after stage 1.
  const auto backend = args.str("backend");
  const bool algo2_stack = backend.empty() || backend == "algo2";
  const auto estimator =
      backend.empty() ? nullptr : proto::make_estimator(backend);

  struct TrialOut {
    proto::Accuracy raw;
    proto::RefinedAccuracy refined;
    proto::RefinedAccuracy smoothed;
  };
  const bench_core::TrialScheduler scheduler(jobs);
  const auto outs = scheduler.map(trials, [&](std::uint64_t t) {
    const auto trial_seed = bench_core::TrialScheduler::trial_seed(seed, t);
    graph::OverlayParams params;
    params.n = n;
    params.d = d;
    params.seed = trial_seed;
    const auto overlay = graph::Overlay::build(params);
    util::Xoshiro256 rng(trial_seed ^ 0xB12);
    const auto byz =
        graph::random_byzantine_mask(n, sim::derive_byz_count(n, delta), rng);

    // Stage 1: Byzantine counting under the fake-color attack.
    const auto strategy = adv::make_strategy(adv::StrategyKind::kFakeColor);
    proto::ProtocolConfig cfg;
    TrialOut out;
    proto::RunResult run;
    if (estimator != nullptr) {
      run = estimator->run(overlay, byz, *strategy, trial_seed);
      const auto bound = estimator->bound(overlay);
      out.raw = proto::summarize_accuracy(run, n, bound.lo, bound.hi);
    } else {
      run = proto::run_counting(overlay, byz, *strategy, cfg, trial_seed);
      out.raw = proto::summarize_accuracy(run, n);
    }
    if (!algo2_stack) return out;

    // Stage 2: model-aware refinement l_{i*-2}.
    const auto refined = proto::refine_run(run, d);
    out.refined = proto::summarize_refined(refined, byz, n);

    // Stage 3: median smoothing over direct channels; Byzantine neighbors
    // respond with absurd inflation.
    const auto smoothed = proto::smooth_estimates(overlay, byz, refined,
                                                  proto::EstimateLie::kInflate);
    out.smoothed = proto::summarize_refined(smoothed, byz, n);
    return out;
  });

  StageStats raw, refined, smoothed;
  for (const auto& out : outs) {
    raw.ratio.add(out.raw.mean_ratio);
    raw.coverage.add(100.0 * out.raw.frac_in_band);
    refined.ratio.add(out.refined.mean_ratio);
    refined.spread.add(out.refined.stddev_ratio);
    refined.coverage.add(static_cast<double>(out.refined.with_estimate));
    smoothed.ratio.add(out.smoothed.mean_ratio);
    smoothed.spread.add(out.smoothed.stddev_ratio);
    smoothed.coverage.add(static_cast<double>(out.smoothed.with_estimate));
  }

  std::string title = "Size service pipeline (truth: log2 n = " +
                      util::format_double(truth, 2) + ", B = " +
                      std::to_string(sim::derive_byz_count(n, delta)) + ", " +
                      std::to_string(trials) + " deployments, " +
                      std::to_string(scheduler.jobs()) + " workers";
  if (!backend.empty()) title += ", backend: " + backend;
  util::Table table(title + ")");
  table.columns({"stage", "mean est (log2)", "ratio to truth", "spread (sd)",
                 "coverage"});
  table.row()
      .cell(algo2_stack ? "1. Algorithm 2 phase i*"
                        : "1. " + backend + " estimate")
      .cell(raw.ratio.mean() * truth, 2)
      .cell(raw.ratio.mean(), 3)
      .cell("-")
      .cell(util::format_double(raw.coverage.mean(), 1) + "% in band");
  if (algo2_stack) {
    table.row()
        .cell("2. refined l_{i*-2}")
        .cell(refined.ratio.mean() * truth, 2)
        .cell(refined.ratio.mean(), 3)
        .cell(refined.spread.mean(), 3)
        .cell(util::format_double(refined.coverage.mean(), 0) + " nodes");
    table.row()
        .cell("3. median-smoothed")
        .cell(smoothed.ratio.mean() * truth, 2)
        .cell(smoothed.ratio.mean(), 3)
        .cell(smoothed.spread.mean(), 3)
        .cell(util::format_double(smoothed.coverage.mean(), 0) + " nodes");
    table.note("Stage 3's adversary: every Byzantine G-neighbor reports a "
               "10^6 estimate during smoothing; the neighborhood median "
               "ignores it. Means are over " + std::to_string(trials) +
               " seed-split deployments run on the shared trial scheduler.");
  } else {
    table.note("Backend '" + backend +
               "' does not expose Algorithm-2 phase semantics, so the "
               "refine/smooth stages are skipped; 'in band' judges stage 1 "
               "against the backend's own declared EstimatorBound.");
  }
  std::cout << table;
  write_trace_if_requested(trace_out);
  return 0;
}
