// E30 — the flood kernel vs the scalar reference oracle: single-trial
// subphase time at large n for both, whose ratio is the kernel's
// data-layout gain (word-packed sets, booked conformant traffic). Every
// timed kernel run is also compared bitwise with the reference (known /
// best_before / last_step, every instrumentation counter, and the
// hierarchical digest trail), so the speedup column is a claim about an
// EQUAL result — the equivalence argument documented in
// src/protocols/flooding.cpp. The scenario fails unless guard.identical
// holds with zero trail divergences. Wall-clock numbers go to stdout via
// ctx.line/table and to guard.speedup.
#include <algorithm>

#include "bench_common.hpp"

namespace {

using namespace byz;
using namespace byz::bench;

using SubphaseFn = decltype(&proto::run_flood_subphase);

/// Speedup floor over the scalar reference at the largest size (the
/// data-layout gain). Recorded as guard.within_budget, not enforced: a
/// ratio of two wall times taken inside a shared run is not a measurement,
/// so only a dedicated serial run (CI's) asserts it.
constexpr double kSpeedupFloor = 3.0;

struct KernelRun {
  double ms = 0.0;
  proto::FloodWorkspace ws;
  sim::Instrumentation instr;
  obs::RunDigester digester;
};

/// One subphase of `steps` flood rounds through `fn` (the kernel or the
/// reference). The workspace is fresh per run so every run starts from
/// identical state; the digester trail is the order-insensitivity witness.
void run_kernel(SubphaseFn fn, const graph::Overlay& overlay,
                const std::vector<bool>& byz, const std::vector<bool>& crashed,
                const proto::Verifier& verifier,
                std::span<const proto::Color> gen, std::uint32_t steps,
                KernelRun& out) {
  proto::FloodParams params;
  params.steps = steps;
  params.digest = &out.digester;
  out.digester.begin_phase(1);
  out.digester.begin_subphase(1);
  util::Timer timer;
  fn(overlay, byz, crashed, verifier, params, gen, {}, out.ws, out.instr);
  out.ms = timer.milliseconds();
  out.digester.close_subphase();
  out.digester.close_phase();
  out.digester.close_run();
}

bool same_outputs(const KernelRun& a, const KernelRun& b) {
  return a.ws.known == b.ws.known && a.ws.best_before == b.ws.best_before &&
         a.ws.last_step == b.ws.last_step && a.instr == b.instr;
}

void run_e30(RunContext& ctx) {
  // Smoke scales shrink max_exp below the full-size floor of 2^16; clamp
  // the low end so the sweep (and the guard it checks) never degenerates
  // to zero sizes.
  const auto hi_exp = ctx.max_exp(20);
  const auto sizes = analysis::pow2_sizes(std::min(16u, hi_exp), hi_exp);
  const auto reps = ctx.trials(3);
  constexpr std::uint32_t kSteps = 8;

  util::Table table("E30: flood kernel vs scalar reference, d=6 (" +
                    std::to_string(reps) + " reps of " +
                    std::to_string(kSteps) + " rounds)");
  table.columns({"n", "reference ms", "kernel ms", "speedup", "identical"});

  std::uint64_t digest_xor = 0;
  std::uint64_t runs_digested = 0;
  std::uint64_t trail_divergences = 0;
  bool guard_identical = true;
  std::uint64_t guard_compared = 0;
  for (const auto n : sizes) {
    const std::uint64_t seed =
        bench_core::TrialScheduler::trial_seed(0xE30 + n, 0);
    const auto overlay = graph::Overlay::build({.n = n, .d = 6, .seed = seed});
    const auto byz = place_byz(n, 0.01, seed);
    const std::vector<bool> crashed(n, false);
    const proto::Verifier verifier(overlay, byz, {});
    util::Xoshiro256 rng(util::mix_seed(seed, 0xF100D));
    std::vector<proto::Color> gen(n);
    for (graph::NodeId v = 0; v < n; ++v) {
      gen[v] = byz[v] ? 0 : util::geometric_color(rng);
    }

    double ref_ms = 0.0;
    double kernel_ms = 0.0;
    bool identical = true;
    for (std::uint32_t rep = 0; rep < reps; ++rep) {
      KernelRun ref;
      KernelRun kernel;
      run_kernel(&proto::run_flood_subphase_reference, overlay, byz, crashed,
                 verifier, gen, kSteps, ref);
      run_kernel(&proto::run_flood_subphase, overlay, byz, crashed, verifier,
                 gen, kSteps, kernel);
      ref_ms += ref.ms;
      kernel_ms += kernel.ms;
      identical = identical && same_outputs(ref, kernel);
      if (obs::first_divergence(ref.digester.trail(), kernel.digester.trail())
              .diverged()) {
        ++trail_divergences;
      }
      ++guard_compared;
      // Reps repeat identical inputs, so one digest per size is the trail.
      if (rep == 0) {
        digest_xor ^= kernel.digester.trail().run_digest;
        ++runs_digested;
      }
    }
    const double speedup = kernel_ms > 0.0 ? ref_ms / kernel_ms : 0.0;
    table.row()
        .cell(std::uint64_t{n})
        .cell(ref_ms / reps, 2)
        .cell(kernel_ms / reps, 2)
        .cell(util::format_double(speedup, 2) + "x")
        .cell(identical ? "yes" : "NO");
    ctx.line("e30: n=" + std::to_string(n) + " reference " +
             util::format_double(ref_ms / reps, 2) + " ms/subphase, kernel " +
             util::format_double(kernel_ms / reps, 2) + " ms (" +
             util::format_double(speedup, 2) + "x)");
    guard_identical = guard_identical && identical;
    // Guard cell: the largest size in this run.
    if (n == sizes.back()) {
      Json g = Json::object();
      g["n"] = std::uint64_t{n};
      g["speedup"] = speedup;
      g["within_budget"] = (speedup >= kSpeedupFloor);
      g["identical"] = guard_identical;
      g["divergences"] = trail_divergences;
      g["compared"] = guard_compared;
      ctx.metric("guard", std::move(g));
    }
  }
  table.note("Same overlay, colors, and Byzantine set for every run, fresh "
             "workspaces per rep. 'speedup' is reference / kernel time, both "
             "on one thread: the gain of the word-packed layout. "
             "'identical' asserts the kernel run bitwise-equals the "
             "reference in per-node state and instrumentation, and the "
             "digest trails are compared entry for entry (" +
             std::to_string(trail_divergences) + " divergences).");
  ctx.emit(table);
  write_digest_sidecar(ctx, "e30", digest_xor, runs_digested,
                       trail_divergences);
  if (!guard_identical) {
    throw std::runtime_error("flood kernel diverged from the scalar oracle");
  }
  if (trail_divergences != 0) {
    throw std::runtime_error("digest trails diverged: " +
                             std::to_string(trail_divergences) + " of " +
                             std::to_string(guard_compared));
  }
}

}  // namespace

BYZBENCH_REGISTER(e30) {
  ScenarioSpec spec;
  spec.id = "e30";
  spec.title = "Scalar reference oracle vs the flood kernel";
  spec.claim = "Word-packed flood kernel: >=3x single-trial speedup over "
               "the scalar reference at n=2^20 on one thread (the "
               "data-layout gain); bitwise identical estimates, "
               "instrumentation, and digest trails";
  spec.grid = {{"steps", {"8"}}, {"byz_delta", {"0.01"}}, pow2_axis(16, 20)};
  spec.base_trials = 3;
  spec.metrics = {"guard.speedup", "guard.within_budget", "guard.identical",
                  "guard.divergences"};
  spec.run = run_e30;
  return spec;
}
