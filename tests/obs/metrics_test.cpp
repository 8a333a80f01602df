#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "bench_core/json.hpp"

namespace byz::obs {
namespace {

/// Flips the runtime switch on for one test and restores "off" (the
/// process default) afterwards, with the registry zeroed on both sides.
class ObsGuard {
 public:
  ObsGuard() {
    reset_metrics();
    set_enabled(true);
  }
  ~ObsGuard() {
    set_enabled(false);
    reset_metrics();
  }
};

std::uint64_t counter_value(const MetricsSnapshot& snap,
                            const std::string& name) {
  for (const auto& [n, v] : snap.counters) {
    if (n == name) return v;
  }
  ADD_FAILURE() << "counter not in snapshot: " << name;
  return 0;
}

const HistogramSnapshot* find_histogram(const MetricsSnapshot& snap,
                                        const std::string& name) {
  for (const auto& h : snap.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

TEST(MetricsRegistry, HistogramBucketIsLog2) {
  EXPECT_EQ(histogram_bucket(0), 0u);
  EXPECT_EQ(histogram_bucket(1), 1u);
  EXPECT_EQ(histogram_bucket(2), 2u);
  EXPECT_EQ(histogram_bucket(3), 2u);
  EXPECT_EQ(histogram_bucket(4), 3u);
  EXPECT_EQ(histogram_bucket(7), 3u);
  EXPECT_EQ(histogram_bucket(8), 4u);
  // Bucket b >= 1 covers [2^(b-1), 2^b - 1]: check both edges for a few b.
  for (std::size_t b = 1; b < 20; ++b) {
    EXPECT_EQ(histogram_bucket(std::uint64_t{1} << (b - 1)), b);
    EXPECT_EQ(histogram_bucket((std::uint64_t{1} << b) - 1), b);
  }
  // The last bucket absorbs the tail, including UINT64_MAX.
  EXPECT_EQ(histogram_bucket(~std::uint64_t{0}), kHistogramBuckets - 1);
}

TEST(MetricsRegistry, QuantileWalksLog2Buckets) {
  HistogramSnapshot h;
  EXPECT_DOUBLE_EQ(histogram_quantile(h, 0.5), 0.0);  // empty
  // 100 zeros: every quantile is exactly 0 (bucket 0 is exact).
  h.count = 100;
  h.buckets[0] = 100;
  EXPECT_DOUBLE_EQ(histogram_quantile(h, 0.99), 0.0);
  // 90 samples in [4, 7] and 10 in [64, 127]: the median interpolates
  // inside the first bucket, p99 inside the tail bucket, and both stay
  // within their bucket's value range.
  h = HistogramSnapshot{};
  h.count = 100;
  h.buckets[histogram_bucket(4)] = 90;
  h.buckets[histogram_bucket(64)] = 10;
  const double p50 = histogram_quantile(h, 0.50);
  EXPECT_GE(p50, 4.0);
  EXPECT_LE(p50, 7.0);
  const double p95 = histogram_quantile(h, 0.95);
  EXPECT_GE(p95, 64.0);
  EXPECT_LE(p95, 127.0);
  const double p99 = histogram_quantile(h, 0.99);
  EXPECT_GE(p99, p95);
  EXPECT_LE(p99, 127.0);
  // Monotone in q.
  EXPECT_LE(histogram_quantile(h, 0.10), p50);
}

TEST(MetricsRegistry, DisabledRecordingIsDropped) {
  reset_metrics();
  ASSERT_FALSE(enabled());  // runtime default is off
  const Counter c("test.disabled_counter");
  c.add(7);
  EXPECT_EQ(counter_value(metrics_snapshot(), "test.disabled_counter"), 0u);
}

TEST(MetricsRegistry, SameNameSharesOneSlot) {
  ObsGuard guard;
  const Counter a("test.shared");
  const Counter b("test.shared");
  a.add(2);
  b.add(3);
  EXPECT_EQ(counter_value(metrics_snapshot(), "test.shared"), 5u);
}

TEST(MetricsRegistry, MultiThreadShardsMergeAtScrape) {
  ObsGuard guard;
  const Counter c("test.mt_counter");
  const Histogram h("test.mt_hist");
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 1000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        c.add(1);
        h.observe(i);
      }
    });
  }
  for (auto& t : pool) t.join();
  const auto snap = metrics_snapshot();
  EXPECT_EQ(counter_value(snap, "test.mt_counter"), kThreads * kPerThread);
  const auto* hist = find_histogram(snap, "test.mt_hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, kThreads * kPerThread);
  EXPECT_EQ(hist->sum, kThreads * (kPerThread * (kPerThread - 1) / 2));
  std::uint64_t bucket_total = 0;
  for (const auto b : hist->buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, hist->count);
}

TEST(MetricsRegistry, DeltaSubtractsCountersAndHistograms) {
  ObsGuard guard;
  const Counter c("test.delta_counter");
  const Histogram h("test.delta_hist");
  c.add(10);
  h.observe(4);
  const auto before = metrics_snapshot();
  c.add(5);
  h.observe(4);
  h.observe(9);
  const auto delta = metrics_delta(before, metrics_snapshot());
  EXPECT_EQ(counter_value(delta, "test.delta_counter"), 5u);
  const auto* hist = find_histogram(delta, "test.delta_hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, 2u);
  EXPECT_EQ(hist->sum, 13u);
  EXPECT_EQ(hist->buckets[histogram_bucket(4)], 1u);
  EXPECT_EQ(hist->buckets[histogram_bucket(9)], 1u);
}

TEST(MetricsRegistry, ResetZeroesValuesButKeepsNames) {
  ObsGuard guard;
  const Counter c("test.reset_counter");
  c.add(42);
  reset_metrics();
  EXPECT_EQ(counter_value(metrics_snapshot(), "test.reset_counter"), 0u);
}

TEST(MetricsRegistry, JsonDocumentParses) {
  ObsGuard guard;
  const Counter c("test.json \"counter\"");
  const Histogram h("test.json_hist");
  c.add(3);
  h.observe(0);
  h.observe(100);
  const auto doc = bench_core::Json::parse(metrics_json(metrics_snapshot()));
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("schema")->as_string(), "byzobs/metrics/v1");
  const auto* counters = doc->find("counters");
  ASSERT_NE(counters, nullptr);
  const auto* value = counters->find("test.json \"counter\"");
  ASSERT_NE(value, nullptr);
  EXPECT_DOUBLE_EQ(value->as_number(), 3.0);
  const auto* hist = doc->find("histograms")->find("test.json_hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_DOUBLE_EQ(hist->find("count")->as_number(), 2.0);
  EXPECT_DOUBLE_EQ(hist->find("sum")->as_number(), 100.0);
  // Sparse buckets: exactly the zero bucket and bucket_of(100).
  ASSERT_EQ(hist->find("buckets")->elements().size(), 2u);
  // Quantile estimates ride along; with half the samples exact zeros the
  // median is 0 and p99 lands in 100's bucket range [64, 127].
  EXPECT_DOUBLE_EQ(hist->find("p50")->as_number(), 0.0);
  EXPECT_GE(hist->find("p99")->as_number(), 64.0);
  EXPECT_LE(hist->find("p99")->as_number(), 127.0);
}

}  // namespace
}  // namespace byz::obs
