// Randomized cross-backend fuzz: ~200 (n, d, Byzantine placement,
// adversary, seed) instances through analysis::compare_backends — the
// algo2 <-> brc agreement oracle — asserting on EVERY instance that each
// backend honors its own declared bound and the pair agrees within the
// combined band. Two algorithms sharing no decision logic cannot drift
// together, so a systematic failure here localizes a real bug in one of
// them (or in the shared flood/obs machinery, which E30's bitwise oracle
// then pins down). A second suite pins determinism: the whole fuzz corpus
// is bitwise reproducible across scheduler --jobs values — the same
// guarantee CI's cross---jobs manifest cmp enforces for the registered
// scenarios.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "analysis/backend_compare.hpp"
#include "adversary/strategies.hpp"
#include "bench_core/scheduler.hpp"
#include "graph/categories.hpp"
#include "graph/small_world.hpp"
#include "protocols/estimator.hpp"
#include "sim/runner.hpp"
#include "util/rng.hpp"

namespace byz {
namespace {

struct FuzzInstance {
  graph::NodeId n = 0;
  std::uint32_t d = 0;
  double delta = 0.0;
  adv::StrategyKind strategy = adv::StrategyKind::kHonest;
  std::uint64_t seed = 0;
};

/// Derives instance i of the corpus from a SplitMix64 stream — pure
/// function of (corpus_seed, i), so every suite below sees the identical
/// corpus regardless of execution order or worker count.
FuzzInstance derive_instance(std::uint64_t corpus_seed, std::uint64_t i) {
  util::SplitMix64 stream(util::mix_seed(corpus_seed, i));
  FuzzInstance inst;
  inst.n = static_cast<graph::NodeId>(128 + stream.next() % 257);  // [128,384]
  const std::uint32_t degrees[] = {4, 6, 8};
  inst.d = degrees[stream.next() % 3];
  inst.delta = 0.4 + 0.1 * static_cast<double>(stream.next() % 4);  // .4-.7
  const adv::StrategyKind kinds[] = {adv::StrategyKind::kHonest,
                                     adv::StrategyKind::kFakeColor,
                                     adv::StrategyKind::kSuppress};
  inst.strategy = kinds[stream.next() % 3];
  inst.seed = stream.next();
  return inst;
}

analysis::BackendComparison run_instance(const FuzzInstance& inst,
                                         const proto::Estimator& algo2,
                                         const proto::Estimator& brc) {
  graph::OverlayParams params;
  params.n = inst.n;
  params.d = inst.d;
  params.seed = inst.seed;
  const auto overlay = graph::Overlay::build(params);
  util::Xoshiro256 place_rng(util::mix_seed(inst.seed, 0x0B12));
  const auto byz = graph::random_byzantine_mask(
      inst.n, sim::derive_byz_count(inst.n, inst.delta), place_rng);
  return analysis::compare_backends(overlay, byz, inst.strategy, inst.seed,
                                    algo2, brc);
}

std::string describe(const FuzzInstance& inst) {
  return "n=" + std::to_string(inst.n) + " d=" + std::to_string(inst.d) +
         " delta=" + std::to_string(inst.delta) +
         " strategy=" + adv::to_string(inst.strategy) +
         " seed=" + std::to_string(inst.seed);
}

constexpr std::uint64_t kCorpusSeed = 0xF0220;
constexpr std::uint64_t kInstances = 200;

TEST(EstimatorFuzz, AgreementInvariantHoldsOnRandomInstances) {
  // Two invariants are ZERO-tolerance on every instance: the pairwise
  // combined-band agreement (the deployable, ground-truth-free oracle) and
  // BRC's own declared bound (calibrated with 2x margin down to n=128).
  // algo2's own band is asserted STATISTICALLY instead: its declared
  // eps=0.15 is the paper's asymptotic claim, and this corpus deliberately
  // fuzzes far below it (n in [128, 384] with up to ~13% Byzantine density,
  // where fake-color attacks leave 20-40% of honest nodes undecided on
  // some instances). The measured miss rate is ~7.5%; the 15% ceiling
  // still catches any systematic regression. E32 guards the own-bound
  // check at zero violations in the calibrated regime (n >= 1024).
  const auto algo2 = proto::make_estimator("algo2");
  const auto brc = proto::make_estimator("brc");
  std::uint64_t algo2_band_misses = 0;
  for (std::uint64_t i = 0; i < kInstances; ++i) {
    const auto inst = derive_instance(kCorpusSeed, i);
    const auto cmp = run_instance(inst, *algo2, *brc);
    EXPECT_TRUE(cmp.agree)
        << "combined-band agreement violated on instance " << i << " ("
        << describe(inst) << "): ratio=" << cmp.ratio << " band=["
        << cmp.combined_lo << ", " << cmp.combined_hi << "]";
    EXPECT_TRUE(cmp.b.in_band)
        << "brc broke its own declared bound on instance " << i << " ("
        << describe(inst) << "): frac_in_band=" << cmp.b.accuracy.frac_in_band
        << " median_ratio=" << cmp.b.median_ratio;
    if (!cmp.a.in_band) ++algo2_band_misses;
  }
  EXPECT_LE(algo2_band_misses, kInstances * 15 / 100)
      << "algo2 own-band miss rate regressed far beyond the small-n "
         "baseline (~7.5%)";
}

TEST(EstimatorFuzz, CorpusBitwiseDeterministicAcrossJobs) {
  // The corpus replayed through the shared TrialScheduler at 1 and 4
  // workers: every comparison must be bitwise identical — same medians,
  // ratios, rounds, message counts — because nothing in compare_backends
  // may depend on scheduling (fresh strategies, per-instance seeds).
  const auto algo2 = proto::make_estimator("algo2");
  const auto brc = proto::make_estimator("brc");
  constexpr std::uint64_t kSubset = 48;  // full corpus x2 would be slow
  const auto run_all = [&](unsigned jobs) {
    const bench_core::TrialScheduler scheduler(jobs);
    return scheduler.map(kSubset, [&](std::uint64_t i) {
      return run_instance(derive_instance(kCorpusSeed, i), *algo2, *brc);
    });
  };
  const auto one = run_all(1);
  const auto four = run_all(4);
  ASSERT_EQ(one.size(), four.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i].a.median_estimate, four[i].a.median_estimate) << i;
    EXPECT_EQ(one[i].b.median_estimate, four[i].b.median_estimate) << i;
    EXPECT_EQ(one[i].ratio, four[i].ratio) << i;
    EXPECT_EQ(one[i].a.rounds, four[i].a.rounds) << i;
    EXPECT_EQ(one[i].b.rounds, four[i].b.rounds) << i;
    EXPECT_EQ(one[i].a.messages, four[i].a.messages) << i;
    EXPECT_EQ(one[i].b.messages, four[i].b.messages) << i;
    EXPECT_EQ(one[i].agree, four[i].agree) << i;
    EXPECT_EQ(one[i].a.in_band, four[i].a.in_band) << i;
    EXPECT_EQ(one[i].b.in_band, four[i].b.in_band) << i;
  }
}

}  // namespace
}  // namespace byz
