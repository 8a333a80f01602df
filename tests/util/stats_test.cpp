#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace byz::util {
namespace {

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(OnlineStats, SingleValue) {
  OnlineStats s;
  s.add(3.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(OnlineStats, KnownMoments) {
  OnlineStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(OnlineStats, MergeEqualsSequential) {
  OnlineStats whole;
  OnlineStats left;
  OnlineStats right;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(i) * 10.0;
    whole.add(x);
    (i < 37 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-10);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(OnlineStats, MergeWithEmpty) {
  OnlineStats a;
  a.add(1.0);
  a.add(2.0);
  OnlineStats b;
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.5);
}

TEST(Percentile, MedianOfOddSample) {
  const std::vector<double> v{5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(median(v), 3.0);
}

TEST(Percentile, InterpolatesEvenSample) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(median(v), 2.5);
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 4.0);
}

TEST(Percentile, EmptyThrows) {
  EXPECT_THROW((void)percentile({}, 0.5), std::invalid_argument);
}

/// The full-sort definition percentile() must reproduce bit for bit.
double sorted_percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

TEST(Percentile, SelectionMatchesSortBitForBit) {
  Xoshiro256 rng(17);
  for (std::size_t size = 1; size <= 300; ++size) {
    // Alternate continuous samples with heavily tied ones.
    const bool ties = size % 2 == 0;
    std::vector<double> v(size);
    for (auto& x : v) {
      x = ties ? static_cast<double>(rng.below(4)) : rng.uniform() * 100.0;
    }
    for (int step = 0; step <= 20; ++step) {
      const double q = step / 20.0;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(percentile(v, q)),
                std::bit_cast<std::uint64_t>(sorted_percentile(v, q)))
          << "size=" << size << " q=" << q;
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(median(v)),
              std::bit_cast<std::uint64_t>(sorted_percentile(v, 0.5)));
  }
}

TEST(Histogram, BucketsAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.add(-1.0);   // clamps into bucket 0
  h.add(0.5);
  h.add(9.9);
  h.add(100.0);  // clamps into last bucket
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(4), 2u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.bucket_lo(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bucket_hi(1), 4.0);
}

TEST(Histogram, BadConstruction) {
  EXPECT_THROW(Histogram(0.0, 0.0, 3), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Histogram, AsciiRendersAllBuckets) {
  Histogram h(0.0, 4.0, 4);
  h.add(1.0);
  h.add(1.5);
  const std::string art = h.ascii(10);
  EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 4);
}

TEST(LinearFit, ExactLine) {
  const std::vector<double> x{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> y{3.0, 5.0, 7.0, 9.0};
  const LinearFit fit = linear_fit(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(LinearFit, NoisyLineStillHighR2) {
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i < 50; ++i) {
    x.push_back(i);
    y.push_back(3.0 * i + ((i % 2) ? 0.5 : -0.5));
  }
  const LinearFit fit = linear_fit(x, y);
  EXPECT_NEAR(fit.slope, 3.0, 0.01);
  EXPECT_GT(fit.r_squared, 0.999);
}

TEST(LinearFit, RejectsTinyInput) {
  EXPECT_THROW(
      (void)linear_fit(std::vector<double>{1.0}, std::vector<double>{1.0}),
      std::invalid_argument);
}

TEST(ChiSquared, ZeroForPerfectMatch) {
  const std::vector<double> o{10.0, 20.0, 30.0};
  EXPECT_DOUBLE_EQ(chi_squared(o, o), 0.0);
}

TEST(ChiSquared, KnownValue) {
  const std::vector<double> o{12.0, 8.0};
  const std::vector<double> e{10.0, 10.0};
  EXPECT_DOUBLE_EQ(chi_squared(o, e), 0.4 + 0.4);
}

TEST(BootstrapCI, CoversTrueMean) {
  std::vector<double> sample;
  for (int i = 0; i < 200; ++i) sample.push_back((i % 10) - 4.5);
  const Interval ci = bootstrap_mean_ci(sample, 0.95, 500, 42);
  EXPECT_LE(ci.lo, 0.0);
  EXPECT_GE(ci.hi, 0.0);
  EXPECT_LT(ci.hi - ci.lo, 1.5);
}

TEST(BootstrapCI, Deterministic) {
  const std::vector<double> sample{1.0, 2.0, 3.0, 4.0, 5.0};
  const Interval a = bootstrap_mean_ci(sample, 0.9, 200, 7);
  const Interval b = bootstrap_mean_ci(sample, 0.9, 200, 7);
  EXPECT_DOUBLE_EQ(a.lo, b.lo);
  EXPECT_DOUBLE_EQ(a.hi, b.hi);
}

}  // namespace
}  // namespace byz::util
