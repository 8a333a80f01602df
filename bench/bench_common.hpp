// Shared plumbing for the registered byzbench scenarios. Each
// bench_eXX.cpp registers one ScenarioSpec against the bench_core
// registry; the byzbench binary links them all and drives them through
// the orchestrator (shared scheduler + JSON emitters).
#pragma once

#include <cmath>
#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "byzcount.hpp"
#include "obs/digest.hpp"

namespace byz::bench {

using bench_core::GridAxis;
using bench_core::Json;
using bench_core::RunContext;
using bench_core::ScenarioSpec;

/// Byzantine placement for a trial.
inline std::vector<bool> place_byz(graph::NodeId n, double delta,
                                   std::uint64_t seed) {
  util::Xoshiro256 rng(util::mix_seed(seed, 0x0B12));
  return graph::random_byzantine_mask(n, sim::derive_byz_count(n, delta), rng);
}

/// log2 helper.
inline double lg(double x) { return std::log2(x); }

/// Grid axis covering the pow2 sweep [2^lo, 2^hi] (declarative view).
inline GridAxis pow2_axis(std::uint32_t lo, std::uint32_t hi) {
  return {"n", {"2^" + std::to_string(lo) + "..2^" + std::to_string(hi)}};
}

/// Digest sidecar: DIGEST_<exp>.json under ctx.digest_out(), carrying the
/// order-independent XOR of the scenario's per-run digests. It stays
/// OUTSIDE the BENCH manifest, which holds the guard verdicts alone; CI
/// diffs the sidecar across --jobs values instead (the XOR fold makes
/// scheduler interleaving irrelevant). Throws when the file cannot be
/// written, which fails the scenario as an unwritable manifest does.
inline void write_digest_sidecar(RunContext& ctx, const std::string& exp,
                                 std::uint64_t digest_xor,
                                 std::uint64_t runs_digested,
                                 std::uint64_t trail_divergences) {
  if (ctx.digest_out().empty()) return;
  const std::string path = ctx.digest_out() + "/DIGEST_" + exp + ".json";
  std::ofstream out(path);
  out << "{\n"
      << "  \"schema\": \"byzobs/digest/v1\",\n"
      << "  \"experiment\": \"" << exp << "\",\n"
      << "  \"runs_digested\": " << runs_digested << ",\n"
      << "  \"digest_xor\": \"" << obs::hex_u64(digest_xor) << "\",\n"
      << "  \"trail_divergences\": " << trail_divergences << "\n"
      << "}\n";
  out.close();
  if (!out) throw std::runtime_error("cannot write " + path);
}

}  // namespace byz::bench
