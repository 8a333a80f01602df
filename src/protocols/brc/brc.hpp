// Byzantine-Resilient Counting (BRC) — the first algorithm of the
// follow-up paper by the same authors, "Byzantine-Resilient Counting in
// Networks" (arXiv 2204.11951; PAPERS.md), adapted to this repo's model as
// the second proto::Estimator backend. Where Algorithm 2 estimates log n
// from the PHASE at which a threshold race stops firing, BRC estimates it
// directly from the MAXIMUM of identity-committed geometric colors,
// aggregated by medians over repeated floods of doubling depth:
//
//   batch m = 1, 2, ...          flood depth T_m = 2^m
//     repetition r = 1..s:       every member v floods its COMMITTED color
//                                C(v, m, r) = color_at(seed', v, idx) for
//                                exactly T_m rounds through the shared
//                                flood kernel; v records the running max
//                                M_{v,r} it accepted.
//     batch median:              med_m(v) = median_r M_{v,r}
//     decide:                    once m >= 2 and |med_m(v) - med_{m-1}(v)|
//                                <= 1, v outputs med_m(v) ≈ log2 n (the
//                                doubling ball stopped growing, so v's max
//                                has saturated at the global maximum).
//
// Byzantine resilience comes from a different mechanism than Algorithm
// 2's witness interrogation: colors are IDENTITY-COMMITTED. The protocol's
// public coin table (proto::color_at — the same full-information-model
// object Algorithm 2 already uses) binds repetition r's color of node v to
// v's certified identity, so every receiver can recompute the commitment
// of any claimed origin locally. A fabricated value matches no member's
// commitment and is dropped at the first honest hop; the paper's model
// gives nodes unique certified ids (no Sybils), so the largest value an
// adversary can put in flight is the true member maximum — INFLATION PAST
// THE TRUTH IS IMPOSSIBLE BY CONSTRUCTION, and a fake-color adversary
// degenerates into an honest participant. What remains is suppression
// (withholding colors, dropping relays), which only shrinks the observed
// maximum by O(|Byz|/n) — the declared bound absorbs it. Consequently BRC
// needs NO adjacency-exchange stage, NO crash rule, and NO verification
// traffic (the Verifier it passes to the kernel has enabled=false; the
// commitment filter runs before injection delivery) — the
// accuracy/rounds/messages frontier E31 measures against Algorithm 2.
//
// Tier support: cold runs and mid-run churn (the kernel's MidRunHooks ride
// unchanged; batches are the backend's "phases", so joiner admission and
// verifier refresh happen at batch boundaries). The message-level engine
// oracle is Algorithm-2 machinery: run_midrun_tier throws when asked to
// replay a BRC run.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "adversary/strategies.hpp"
#include "graph/small_world.hpp"
#include "protocols/estimator.hpp"
#include "protocols/run_common.hpp"

namespace byz::proto {

struct BrcConfig {
  /// Flood repetitions per batch (forced odd: per-node batch medians are
  /// exact order statistics, so runs are integer-exact and deterministic).
  std::uint32_t reps_per_batch = 15;
  /// Batch cap (0 = auto: enough doublings to cover the overlay's diameter
  /// estimate plus slack — resolve_brc_max_batches).
  std::uint32_t max_batches = 0;
  /// Earliest batch a node may decide in (needs two batch medians).
  std::uint32_t min_decide_batch = 2;
  /// |med_m - med_{m-1}| <= slack counts as saturated.
  std::uint32_t stability_slack = 1;
};

/// Resolved batch cap for an overlay (cfg.max_batches, or the auto rule).
[[nodiscard]] std::uint32_t resolve_brc_max_batches(
    const graph::Overlay& overlay, const BrcConfig& cfg);

/// One BRC counting run. `controls` supports every knob: the digester and
/// mid-run hooks. RunResult::estimate holds the decided median color
/// ≈ log2 n, directly comparable (as an est/log2 n ratio) with Algorithm
/// 2's decided phase.
[[nodiscard]] RunResult run_brc_counting(const graph::Overlay& overlay,
                                         const std::vector<bool>& byz_mask,
                                         adv::Strategy& strategy,
                                         const BrcConfig& cfg,
                                         std::uint64_t color_seed,
                                         const RunControls& controls);

/// The "brc" backend's factory (make_estimator). ProtocolConfig mapping:
/// max_phase overrides BrcConfig::max_batches; schedule/verification/
/// crash_rule do not apply (BRC has no subphase schedule, no witness
/// verification, and no crash rule).
[[nodiscard]] std::unique_ptr<Estimator> make_brc_estimator(
    const ProtocolConfig& cfg);

}  // namespace byz::proto
