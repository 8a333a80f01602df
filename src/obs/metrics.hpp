// Metrics registry: named counters and fixed-bucket log2 histograms with
// lock-free per-thread shards merged at scrape time.
//
// Handles intern their name once (a mutex-guarded lookup, normally hidden
// behind a function-local static at the call site); recording then touches
// only the calling thread's shard with relaxed atomics — no contention, so
// the work-stealing trial scheduler can record from every worker. A shard
// is folded into a retained accumulator when its thread exits, and
// metrics_snapshot() merges retained + live shards into one view.
//
// Histogram buckets are log2: bucket 0 holds value 0 and bucket b >= 1
// holds values in [2^(b-1), 2^b - 1] (the last bucket absorbs the tail).
//
// Like every obs/ facility this is pure read-side (see obs.hpp) and inert
// until obs::set_enabled(true).
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.hpp"

namespace byz::obs {

inline constexpr std::size_t kHistogramBuckets = 64;

/// log2 bucket index of a sample: 0 -> 0, v -> bit_width(v) capped at
/// kHistogramBuckets - 1.
[[nodiscard]] constexpr std::size_t histogram_bucket(
    std::uint64_t value) noexcept {
  const auto b = static_cast<std::size_t>(std::bit_width(value));
  return b < kHistogramBuckets ? b : kHistogramBuckets - 1;
}

class Counter {
 public:
  explicit Counter(std::string_view name);
  void add(std::uint64_t delta = 1) const noexcept;

 private:
  std::uint32_t id_;
};

class Histogram {
 public:
  explicit Histogram(std::string_view name);
  void observe(std::uint64_t value) const noexcept;

 private:
  std::uint32_t id_;
};

struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
};

/// Point-in-time merge of every shard. Registration order, so output is
/// stable across scrapes of the same process.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<HistogramSnapshot> histograms;
};

/// Merges retained + live thread shards. Safe to call concurrently with
/// recording threads (their in-flight increments may or may not land).
[[nodiscard]] MetricsSnapshot metrics_snapshot();

/// Counter and histogram deltas `after - before`. Both snapshots must come
/// from the same process; names present only in `after` are kept as-is.
[[nodiscard]] MetricsSnapshot metrics_delta(const MetricsSnapshot& before,
                                            const MetricsSnapshot& after);

/// Quantile estimate from the log2 buckets: walks the cumulative counts to
/// the bucket holding rank q*count and interpolates linearly inside its
/// [2^(b-1), 2^b - 1] value range. Exact for bucket 0 (zeros); elsewhere
/// the error is bounded by the bucket width. 0 when the histogram is empty.
[[nodiscard]] double histogram_quantile(const HistogramSnapshot& h, double q);

/// byzobs/metrics/v1 JSON document for a snapshot. Histograms carry p50 /
/// p95 / p99 estimates (histogram_quantile) alongside the raw buckets.
[[nodiscard]] std::string metrics_json(const MetricsSnapshot& snap);

/// Writes metrics_json(metrics_snapshot()) to `path`. False on I/O error.
bool write_metrics_file(const std::string& path);

/// Zeroes every counter and histogram (names stay registered). Tests.
void reset_metrics();

}  // namespace byz::obs
