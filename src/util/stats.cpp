#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "util/rng.hpp"

namespace byz::util {

void OnlineStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void OnlineStats::merge(const OnlineStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

double OnlineStats::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double OnlineStats::stddev() const noexcept { return std::sqrt(variance()); }

double OnlineStats::stderr_mean() const noexcept {
  return n_ > 0 ? stddev() / std::sqrt(static_cast<double>(n_)) : 0.0;
}

double percentile(std::span<const double> sample, double q) {
  if (sample.empty()) throw std::invalid_argument("percentile: empty sample");
  q = std::clamp(q, 0.0, 1.0);
  // Selection, not a full sort: the order statistic at lo, and its
  // successor as the minimum of what selection left above it.
  std::vector<double> values(sample.begin(), sample.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto at_lo = values.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(values.begin(), at_lo, values.end());
  const double below = *at_lo;
  const double above = lo + 1 < values.size()
                           ? *std::min_element(at_lo + 1, values.end())
                           : below;
  const double frac = pos - static_cast<double>(lo);
  return below * (1.0 - frac) + above * frac;
}

double median(std::span<const double> sample) { return percentile(sample, 0.5); }

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), counts_(buckets, 0) {
  if (buckets == 0) throw std::invalid_argument("Histogram: zero buckets");
  if (!(lo < hi)) throw std::invalid_argument("Histogram: lo must be < hi");
}

void Histogram::add(double x) noexcept {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  auto idx = static_cast<std::ptrdiff_t>(std::floor((x - lo_) / width));
  idx = std::clamp<std::ptrdiff_t>(idx, 0,
                                   static_cast<std::ptrdiff_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(idx)];
  ++total_;
}

std::uint64_t Histogram::count(std::size_t bucket) const {
  return counts_.at(bucket);
}

double Histogram::bucket_lo(std::size_t bucket) const {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + width * static_cast<double>(bucket);
}

double Histogram::bucket_hi(std::size_t bucket) const {
  return bucket_lo(bucket) + (hi_ - lo_) / static_cast<double>(counts_.size());
}

std::string Histogram::ascii(std::size_t width) const {
  std::uint64_t peak = 1;
  for (const auto c : counts_) peak = std::max(peak, c);
  std::ostringstream out;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    const auto bar = static_cast<std::size_t>(
        static_cast<double>(counts_[b]) / static_cast<double>(peak) *
        static_cast<double>(width));
    out << '[';
    out.precision(3);
    out << bucket_lo(b) << ", " << bucket_hi(b) << ") ";
    out << std::string(bar, '#') << ' ' << counts_[b] << '\n';
  }
  return out.str();
}

LinearFit linear_fit(std::span<const double> x, std::span<const double> y) {
  if (x.size() != y.size() || x.size() < 2) {
    throw std::invalid_argument("linear_fit: need >= 2 paired points");
  }
  const auto n = static_cast<double>(x.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0, syy = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    sxy += x[i] * y[i];
    syy += y[i] * y[i];
  }
  const double denom = n * sxx - sx * sx;
  LinearFit fit;
  if (denom == 0.0) return fit;
  fit.slope = (n * sxy - sx * sy) / denom;
  fit.intercept = (sy - fit.slope * sx) / n;
  const double ss_tot = syy - sy * sy / n;
  double ss_res = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double e = y[i] - (fit.slope * x[i] + fit.intercept);
    ss_res += e * e;
  }
  fit.r_squared = ss_tot > 0 ? 1.0 - ss_res / ss_tot : 1.0;
  return fit;
}

double chi_squared(std::span<const double> observed,
                   std::span<const double> expected) {
  if (observed.size() != expected.size()) {
    throw std::invalid_argument("chi_squared: size mismatch");
  }
  double stat = 0.0;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    if (expected[i] <= 0.0) continue;  // skip empty expected cells
    const double d = observed[i] - expected[i];
    stat += d * d / expected[i];
  }
  return stat;
}

Interval bootstrap_mean_ci(std::span<const double> sample, double confidence,
                           int resamples, std::uint64_t seed) {
  if (sample.empty()) throw std::invalid_argument("bootstrap: empty sample");
  Xoshiro256 rng(seed);
  std::vector<double> means;
  means.reserve(static_cast<std::size_t>(resamples));
  for (int r = 0; r < resamples; ++r) {
    double sum = 0.0;
    for (std::size_t i = 0; i < sample.size(); ++i) {
      sum += sample[rng.below(sample.size())];
    }
    means.push_back(sum / static_cast<double>(sample.size()));
  }
  const double alpha = 1.0 - confidence;
  return Interval{percentile(means, alpha / 2.0),
                  percentile(means, 1.0 - alpha / 2.0)};
}

}  // namespace byz::util
