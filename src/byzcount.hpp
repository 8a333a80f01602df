// byzcount — Byzantine-tolerant network size estimation in small-world
// overlays. Umbrella header: pulls in the full public API.
//
// Reproduction of Chatterjee, Pandurangan & Robinson, "Network Size
// Estimation in Small-World Networks under Byzantine Faults".
//
// Quick tour (see examples/quickstart.cpp):
//   graph::Overlay::build({.n, .d, .seed})  — sample the H(n,d) ∪ L overlay
//   graph::random_byzantine_mask            — place Byzantine nodes
//   adv::make_strategy                      — choose an attack
//   proto::run_counting                     — run Algorithm 2 (fast path)
//   sim::Engine                             — message-level reference run
//   proto::summarize_accuracy               — Theorem-1 style verdict
#pragma once

#include "adversary/churn.hpp"           // IWYU pragma: export
#include "adversary/midrun_schedule.hpp" // IWYU pragma: export
#include "adversary/placement.hpp"       // IWYU pragma: export
#include "adversary/strategies.hpp"      // IWYU pragma: export
#include "analysis/backend_compare.hpp"  // IWYU pragma: export
#include "analysis/experiment.hpp"       // IWYU pragma: export
#include "analysis/report.hpp"           // IWYU pragma: export
#include "baselines/birthday.hpp"        // IWYU pragma: export
#include "baselines/flood_diameter.hpp"  // IWYU pragma: export
#include "baselines/spanning_tree.hpp"   // IWYU pragma: export
#include "baselines/support_estimation.hpp"  // IWYU pragma: export
#include "bench_core/context.hpp"        // IWYU pragma: export
#include "bench_core/json.hpp"           // IWYU pragma: export
#include "bench_core/orchestrator.hpp"   // IWYU pragma: export
#include "bench_core/overlay_cache.hpp"  // IWYU pragma: export
#include "bench_core/registry.hpp"       // IWYU pragma: export
#include "bench_core/scheduler.hpp"      // IWYU pragma: export
#include "dynamics/churn_trace.hpp"      // IWYU pragma: export
#include "dynamics/epoch_driver.hpp"     // IWYU pragma: export
#include "dynamics/midrun.hpp"           // IWYU pragma: export
#include "dynamics/mutable_overlay.hpp"  // IWYU pragma: export
#include "graph/bfs.hpp"                 // IWYU pragma: export
#include "graph/categories.hpp"          // IWYU pragma: export
#include "graph/connectivity.hpp"        // IWYU pragma: export
#include "graph/graph.hpp"               // IWYU pragma: export
#include "graph/hamiltonian.hpp"         // IWYU pragma: export
#include "graph/io.hpp"                  // IWYU pragma: export
#include "graph/metrics.hpp"             // IWYU pragma: export
#include "graph/small_world.hpp"         // IWYU pragma: export
#include "graph/spectral.hpp"            // IWYU pragma: export
#include "graph/tree_like.hpp"           // IWYU pragma: export
#include "obs/metrics.hpp"               // IWYU pragma: export
#include "obs/obs.hpp"                   // IWYU pragma: export
#include "obs/trace.hpp"                 // IWYU pragma: export
#include "protocols/brc/brc.hpp"         // IWYU pragma: export
#include "protocols/color.hpp"           // IWYU pragma: export
#include "protocols/estimate.hpp"        // IWYU pragma: export
#include "protocols/estimator.hpp"       // IWYU pragma: export
#include "protocols/fastpath.hpp"        // IWYU pragma: export
#include "protocols/flooding.hpp"        // IWYU pragma: export
#include "protocols/midrun.hpp"          // IWYU pragma: export
#include "protocols/neighborhood.hpp"    // IWYU pragma: export
#include "protocols/refine.hpp"          // IWYU pragma: export
#include "protocols/run_common.hpp"      // IWYU pragma: export
#include "protocols/schedule.hpp"        // IWYU pragma: export
#include "protocols/verification.hpp"    // IWYU pragma: export
#include "sim/engine.hpp"                // IWYU pragma: export
#include "sim/runner.hpp"                // IWYU pragma: export
#include "sim/world.hpp"                 // IWYU pragma: export
#include "util/bitops.hpp"               // IWYU pragma: export
#include "util/cli.hpp"                  // IWYU pragma: export
#include "util/csv.hpp"                  // IWYU pragma: export
#include "util/log.hpp"                  // IWYU pragma: export
#include "util/rng.hpp"                  // IWYU pragma: export
#include "util/stats.hpp"                // IWYU pragma: export
#include "util/table.hpp"                // IWYU pragma: export
#include "util/timer.hpp"                // IWYU pragma: export
