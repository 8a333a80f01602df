#include "protocols/refine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "adversary/strategies.hpp"
#include "graph/categories.hpp"
#include "protocols/color.hpp"
#include "protocols/fastpath.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace byz::proto {
namespace {

using graph::NodeId;
using graph::Overlay;
using graph::OverlayParams;

Overlay sample(NodeId n = 2048, std::uint32_t d = 8, std::uint64_t seed = 3) {
  OverlayParams p;
  p.n = n;
  p.d = d;
  p.seed = seed;
  return Overlay::build(p);
}

TEST(RefinedEstimate, ClosedForm) {
  // l_{i-2} = log2 d + (i-2) log2(d-1).
  EXPECT_NEAR(refined_log_estimate(5, 8), ell(8, 3), 1e-12);
  EXPECT_NEAR(refined_log_estimate(2, 8), ell(8, 0), 1e-12);
  EXPECT_NEAR(refined_log_estimate(1, 8), ell(8, 0), 1e-12);  // clamped
  EXPECT_EQ(refined_log_estimate(0, 8), 0.0);                 // no estimate
}

TEST(RefinedEstimate, MonotoneInPhase) {
  for (std::uint32_t i = 3; i < 20; ++i) {
    EXPECT_GT(refined_log_estimate(i + 1, 8), refined_log_estimate(i, 8));
  }
}

TEST(RefineRun, NearUnityRatioOnCleanRuns) {
  // The whole point: raw ratios sit near 1/log2(d-1) ≈ 0.36; refined
  // ratios must sit near 1 with small spread, across scales.
  for (const NodeId n : {1024u, 4096u, 16384u}) {
    const Overlay o = sample(n, 8, n);
    const auto run = run_basic_counting(o, 7);
    const std::vector<bool> byz(n, false);
    const auto refined = refine_run(run, 8);
    const auto acc = summarize_refined(refined, byz, n);
    EXPECT_EQ(acc.with_estimate, n);
    EXPECT_GT(acc.mean_ratio, 0.85) << "n=" << n;
    EXPECT_LT(acc.mean_ratio, 1.45) << "n=" << n;
    EXPECT_LT(acc.stddev_ratio, 0.25) << "n=" << n;
  }
}

TEST(RefineRun, SkipsCrashedAndUndecided) {
  RunResult run;
  run.status = {NodeStatus::kDecided, NodeStatus::kCrashed,
                NodeStatus::kUndecided, NodeStatus::kByzantine};
  run.estimate = {5, 0, 0, 0};
  const auto refined = refine_run(run, 8);
  EXPECT_GT(refined[0], 0.0);
  EXPECT_EQ(refined[1], 0.0);
  EXPECT_EQ(refined[2], 0.0);
  EXPECT_EQ(refined[3], 0.0);
}

TEST(Smoothing, CollapsesSpread) {
  const NodeId n = 4096;
  const Overlay o = sample(n, 8, 17);
  const auto run = run_basic_counting(o, 23);
  const std::vector<bool> byz(n, false);
  const auto refined = refine_run(run, 8);
  const auto before = summarize_refined(refined, byz, n);
  const auto smoothed = smooth_estimates(o, byz, refined, EstimateLie::kHonest);
  const auto after = summarize_refined(smoothed, byz, n);
  EXPECT_LE(after.stddev_ratio, before.stddev_ratio);
  EXPECT_NEAR(after.mean_ratio, before.mean_ratio, 0.2);
}

TEST(Smoothing, MedianShrugsOffInflatingByzantine) {
  const NodeId n = 2048;
  const Overlay o = sample(n, 8, 19);
  util::Xoshiro256 rng(21);
  const auto byz = graph::random_byzantine_mask(n, 45, rng);  // n^0.5
  const auto run = run_basic_counting(o, 29);
  const auto refined = refine_run(run, 8);
  const auto smoothed =
      smooth_estimates(o, byz, refined, EstimateLie::kInflate);
  const auto acc = summarize_refined(smoothed, byz, n);
  // Byzantine minorities cannot drag the neighborhood median to 10^6.
  EXPECT_LT(acc.max_ratio, 3.0);
  EXPECT_GT(acc.mean_ratio, 0.5);
}

TEST(Smoothing, DeflationEquallyHarmless) {
  const NodeId n = 2048;
  const Overlay o = sample(n, 8, 23);
  util::Xoshiro256 rng(25);
  const auto byz = graph::random_byzantine_mask(n, 45, rng);
  const auto run = run_basic_counting(o, 31);
  const auto refined = refine_run(run, 8);
  const auto smoothed =
      smooth_estimates(o, byz, refined, EstimateLie::kDeflate);
  const auto acc = summarize_refined(smoothed, byz, n);
  EXPECT_GT(acc.min_ratio, 0.3);
}

/// The window-copy smoothing kept as the bitwise reference: gather each
/// honest node's closed-neighborhood window and take util::median of it.
std::vector<double> reference_smooth(const Overlay& overlay,
                                     const std::vector<bool>& byz_mask,
                                     const std::vector<double>& estimates,
                                     EstimateLie lie) {
  const NodeId n = overlay.num_nodes();
  std::vector<double> smoothed(n, 0.0);
  std::vector<double> window;
  for (NodeId v = 0; v < n; ++v) {
    if (byz_mask[v]) continue;
    window.clear();
    if (estimates[v] > 0.0) window.push_back(estimates[v]);  // self
    for (const NodeId w : overlay.g().neighbors(v)) {
      if (byz_mask[w]) {
        switch (lie) {
          case EstimateLie::kHonest:
            if (estimates[w] > 0.0) window.push_back(estimates[w]);
            break;
          case EstimateLie::kInflate:
            window.push_back(1e6);
            break;
          case EstimateLie::kDeflate:
            window.push_back(0.0);
            break;
        }
      } else if (estimates[w] > 0.0) {
        window.push_back(estimates[w]);
      }
    }
    if (window.empty()) continue;
    smoothed[v] = util::median(window);
  }
  return smoothed;
}

void expect_bitwise_reference(const Overlay& o, const std::vector<bool>& byz,
                              const std::vector<double>& estimates) {
  for (const auto lie :
       {EstimateLie::kHonest, EstimateLie::kInflate, EstimateLie::kDeflate}) {
    const auto want = reference_smooth(o, byz, estimates, lie);
    const auto got = smooth_estimates(o, byz, estimates, lie);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          want.size() * sizeof(double)),
              0)
        << "lie=" << static_cast<int>(lie);
  }
}

TEST(Smoothing, BitwiseEqualsWindowMedianOnRefinedRuns) {
  const NodeId n = 2048;
  const Overlay o = sample(n, 8, 37);
  util::Xoshiro256 rng(39);
  const auto byz = graph::random_byzantine_mask(n, 45, rng);
  const auto strategy = adv::make_strategy(adv::StrategyKind::kFakeColor);
  const auto run = run_counting(o, byz, *strategy, ProtocolConfig{}, 41);
  expect_bitwise_reference(o, byz, refine_run(run, 8));
}

TEST(Smoothing, BitwiseEqualsWindowMedianOnHandBuiltReports) {
  // Ties (a 3-value pool), silence (0 and negative), and many distinct
  // values; node 0's closed neighborhood is all silent and honest, so its
  // window is empty. Window sizes of both parities must occur.
  const NodeId n = 512;
  const Overlay o = sample(n, 6, 43);
  util::Xoshiro256 rng(45);
  std::vector<double> estimates(n);
  for (NodeId v = 0; v < n; ++v) {
    const auto pick = rng.below(4);
    if (pick == 0) {
      estimates[v] = 0.0;
    } else if (pick == 1) {
      estimates[v] = -1.0;
    } else if (pick == 2) {
      estimates[v] = 10.0 + 1.5 * static_cast<double>(rng.below(3));
    } else {
      estimates[v] = 5.0 + rng.uniform();
    }
  }
  std::vector<bool> byz(n, false);
  for (NodeId v = 0; v < n; v += 9) byz[v] = true;
  byz[0] = false;
  estimates[0] = 0.0;
  for (const NodeId w : o.g().neighbors(0)) {
    estimates[w] = 0.0;
    byz[w] = false;
  }

  bool odd = false;
  bool even = false;
  bool empty = false;
  for (NodeId v = 0; v < n; ++v) {
    if (byz[v]) continue;
    std::size_t size = estimates[v] > 0.0 ? 1 : 0;
    for (const NodeId w : o.g().neighbors(v)) {
      size += byz[w] || estimates[w] > 0.0 ? 1 : 0;  // kInflate/kDeflate
    }
    if (size == 0) {
      empty = true;
    } else if (size % 2 == 1) {
      odd = true;
    } else {
      even = true;
    }
  }
  EXPECT_TRUE(odd);
  EXPECT_TRUE(even);
  EXPECT_TRUE(empty);
  expect_bitwise_reference(o, byz, estimates);
}

TEST(Smoothing, SizeMismatchThrows) {
  const Overlay o = sample(64, 6, 29);
  EXPECT_THROW((void)smooth_estimates(o, std::vector<bool>(3, false),
                                      std::vector<double>(64, 1.0),
                                      EstimateLie::kHonest),
               std::invalid_argument);
}

TEST(SummarizeRefined, IgnoresByzantineAndZeroes) {
  std::vector<double> est{10.0, 0.0, 12.0, 99.0};
  std::vector<bool> byz{false, false, false, true};
  const auto acc = summarize_refined(est, byz, 1024);  // log2 = 10
  EXPECT_EQ(acc.with_estimate, 2u);
  EXPECT_NEAR(acc.mean_ratio, (1.0 + 1.2) / 2.0, 1e-12);
  EXPECT_NEAR(acc.min_ratio, 1.0, 1e-12);
  EXPECT_NEAR(acc.max_ratio, 1.2, 1e-12);
}

}  // namespace
}  // namespace byz::proto
