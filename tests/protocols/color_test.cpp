#include "protocols/color.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace byz::proto {
namespace {

TEST(Ell, ClosedForm) {
  EXPECT_NEAR(ell(8, 0), 3.0, 1e-12);
  EXPECT_NEAR(ell(8, 1), 3.0 + std::log2(7.0), 1e-12);
  EXPECT_NEAR(ell(8, 2) - ell(8, 1), std::log2(7.0), 1e-12);  // l_r = l_{r-1}+log(d-1)
}

TEST(Ell, RejectsSmallDegree) {
  EXPECT_THROW((void)ell(2, 1), std::invalid_argument);
}

TEST(ContinueThreshold, MatchesDefinition) {
  // thr(i) = l_{i-1} - log2(l_{i-1}).
  for (std::uint32_t i : {1u, 2u, 5u, 10u}) {
    const double li = ell(8, i - 1);
    EXPECT_NEAR(continue_threshold(i, 8), li - std::log2(li), 1e-12);
  }
}

TEST(ContinueThreshold, MonotoneInPhase) {
  double prev = continue_threshold(1, 8);
  for (std::uint32_t i = 2; i <= 30; ++i) {
    const double cur = continue_threshold(i, 8);
    EXPECT_GT(cur, prev);
    prev = cur;
  }
}

TEST(ContinueThreshold, PhaseZeroThrows) {
  EXPECT_THROW((void)continue_threshold(0, 8), std::invalid_argument);
}

TEST(ColorAt, DeterministicRandomAccess) {
  EXPECT_EQ(color_at(42, 7, 3), color_at(42, 7, 3));
  // Different coordinates give (almost surely) different draw streams; over
  // many cells at least one must differ.
  bool any_diff = false;
  for (std::uint32_t s = 0; s < 64 && !any_diff; ++s) {
    any_diff = color_at(42, 7, s) != color_at(43, 7, s);
  }
  EXPECT_TRUE(any_diff);
}

TEST(ColorAt, FollowsGeometricLaw) {
  int ones = 0;
  constexpr int kCells = 100000;
  for (int i = 0; i < kCells; ++i) {
    if (color_at(9, static_cast<std::uint32_t>(i), 0) == 1) ++ones;
  }
  EXPECT_NEAR(ones, kCells / 2, 1500);
}

/// color_at's body before it computed only the generator word its first
/// output reads: seed a full Xoshiro256 and draw.
Color full_generator_color(std::uint64_t color_seed, std::uint32_t node,
                           std::uint32_t global_subphase) {
  util::Xoshiro256 rng(
      util::mix_seed(util::mix_seed(color_seed, node), global_subphase));
  return util::geometric_color(rng);
}

TEST(ColorAt, MatchesTheFullGenerator) {
  util::Xoshiro256 rng(0xC0102);
  std::uint64_t mismatches = 0;
  constexpr int kTriples = 1'200'000;
  for (int i = 0; i < kTriples; ++i) {
    const std::uint64_t seed = rng();
    const auto node = static_cast<std::uint32_t>(rng() >> 40);
    const auto s = static_cast<std::uint32_t>(rng() % 4096);
    const Color want = full_generator_color(seed, node, s);
    mismatches += color_at(seed, node, s) != want ? 1 : 0;
    mismatches +=
        color_at_node(node_color_seed(seed, node), s) != want ? 1 : 0;
  }
  EXPECT_EQ(mismatches, 0u);
}

/// Inverse of SplitMix64's output finalizer.
std::uint64_t unfinalize(std::uint64_t y) {
  const auto inverse = [](std::uint64_t c) {
    std::uint64_t x = c;  // Newton: each step doubles the correct low bits
    for (int i = 0; i < 5; ++i) x *= 2 - c * x;
    return x;
  };
  y ^= (y >> 31) ^ (y >> 62);
  y *= inverse(0x94D049BB133111EBULL);
  y ^= (y >> 27) ^ (y >> 54);
  y *= inverse(0xBF58476D1CE4E5B9ULL);
  y ^= (y >> 30) ^ (y >> 60);
  return y;
}

TEST(ColorAt, ZeroFirstOutputFallsBackToTheFullGenerator) {
  // Xoshiro256's first output is 0 iff its second state word is, i.e. iff
  // its seed is -2γ (γ = SplitMix64's increment). Solve mix_seed(a, s) for
  // that seed, so the draw takes the 2^-64 branch.
  constexpr std::uint64_t kGamma = 0x9E3779B97F4A7C15ULL;
  const std::uint64_t target = 0 - 2 * kGamma;
  const std::uint32_t s = 5;
  const std::uint64_t b = s;
  const std::uint64_t node_seed =
      (unfinalize(target ^ b) - 2 * kGamma) ^ (kGamma + (b << 6) + (b >> 2));
  ASSERT_EQ(util::mix_seed(node_seed, s), target);
  util::Xoshiro256 rng(target);
  const Color want = util::geometric_color(rng);
  EXPECT_GT(want, 64u) << "the first output was not zero";
  EXPECT_EQ(color_at_node(node_seed, s), want);
}

TEST(Probabilities, Observation4) {
  EXPECT_DOUBLE_EQ(prob_color_eq(1), 0.5);
  EXPECT_DOUBLE_EQ(prob_color_eq(3), 0.125);
  EXPECT_DOUBLE_EQ(prob_color_ge(1), 1.0);
  EXPECT_DOUBLE_EQ(prob_color_ge(4), 0.125);
}

TEST(Probabilities, Observation5MaxLaw) {
  // Pr[max over n' <= r] = (1 - 2^-r)^{n'}.
  EXPECT_NEAR(prob_max_color_le(10, 1024.0), std::pow(1.0 - 1.0 / 1024.0, 1024.0),
              1e-12);
  // Lemma 4 flavor: Pr[max > 2 log n'] <= 1/n'.
  const double n = 4096.0;
  const double p_gt = 1.0 - prob_max_color_le(24, n);  // 2*log2(4096)=24
  EXPECT_LE(p_gt, 1.0 / n + 1e-9);
}

TEST(Probabilities, Lemma5LowerTail) {
  // Pr[max <= log n' - log log n'] < 1/n'.
  const double n = 65536.0;  // log2 = 16, log2 log2 = 4
  EXPECT_LT(prob_max_color_le(12, n), 1.0 / n);
}

}  // namespace
}  // namespace byz::proto
