// Streaming and batch statistics used by every experiment: online
// mean/variance (Welford), percentiles, histograms, and simple linear
// regression (for the round-complexity scaling fits).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace byz::util {

/// Welford online accumulator: numerically stable mean/variance plus
/// min/max, mergeable (to fold per-trial or per-worker copies).
class OnlineStats {
 public:
  void add(double x) noexcept;
  void merge(const OnlineStats& other) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const noexcept;       ///< sample variance
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double stderr_mean() const noexcept;    ///< stddev / sqrt(n)
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const noexcept { return mean_ * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Exact percentile of a sample (copies + sorts; fine at experiment scale).
/// `q` in [0, 1]; linear interpolation between order statistics.
[[nodiscard]] double percentile(std::span<const double> sample, double q);

/// Median shorthand.
[[nodiscard]] double median(std::span<const double> sample);

/// Fixed-width histogram over [lo, hi); values outside are clamped into the
/// first/last bucket. Used for color and estimate distributions.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void add(double x) noexcept;
  [[nodiscard]] std::size_t bucket_count() const noexcept { return counts_.size(); }
  [[nodiscard]] std::uint64_t count(std::size_t bucket) const;
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] double bucket_lo(std::size_t bucket) const;
  [[nodiscard]] double bucket_hi(std::size_t bucket) const;

  /// Renders an ASCII bar chart, one bucket per line.
  [[nodiscard]] std::string ascii(std::size_t width = 50) const;

 private:
  double lo_, hi_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// Ordinary least squares fit y = slope*x + intercept with R^2.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r_squared = 0.0;
};
[[nodiscard]] LinearFit linear_fit(std::span<const double> x,
                                   std::span<const double> y);

/// Pearson chi-squared statistic for observed vs expected counts; the
/// distribution tests use this with conservative critical values.
[[nodiscard]] double chi_squared(std::span<const double> observed,
                                 std::span<const double> expected);

/// Bootstrap confidence interval of the mean (percentile method).
struct Interval {
  double lo = 0.0;
  double hi = 0.0;
};
[[nodiscard]] Interval bootstrap_mean_ci(std::span<const double> sample,
                                         double confidence, int resamples,
                                         std::uint64_t seed);

}  // namespace byz::util
