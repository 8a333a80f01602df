#include "obs/metrics.hpp"

#include <atomic>
#include <cstdio>
#include <mutex>

namespace byz::obs {

namespace {

// Fixed shard capacities: the repo registers a few dozen metrics, all via
// function-local static handles. Interning past a cap aliases onto the
// cap's last slot rather than failing — wrong numbers beat UB, and the
// caps are an order of magnitude above current usage.
constexpr std::size_t kMaxCounters = 128;
constexpr std::size_t kMaxHistograms = 64;

struct HistogramCells {
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> sum{0};
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
};

/// One thread's private cells. Only the owner writes (relaxed); the
/// scraper reads concurrently, which atomics make well-defined.
struct Shard {
  std::array<std::atomic<std::uint64_t>, kMaxCounters> counters{};
  std::array<HistogramCells, kMaxHistograms> histograms{};
};

void fold_shard(Shard& into, const Shard& from) {
  for (std::size_t i = 0; i < kMaxCounters; ++i) {
    into.counters[i].fetch_add(
        from.counters[i].load(std::memory_order_relaxed),
        std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < kMaxHistograms; ++i) {
    into.histograms[i].count.fetch_add(
        from.histograms[i].count.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    into.histograms[i].sum.fetch_add(
        from.histograms[i].sum.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      into.histograms[i].buckets[b].fetch_add(
          from.histograms[i].buckets[b].load(std::memory_order_relaxed),
          std::memory_order_relaxed);
    }
  }
}

void zero_shard(Shard& shard) {
  for (auto& c : shard.counters) c.store(0, std::memory_order_relaxed);
  for (auto& h : shard.histograms) {
    h.count.store(0, std::memory_order_relaxed);
    h.sum.store(0, std::memory_order_relaxed);
    for (auto& b : h.buckets) b.store(0, std::memory_order_relaxed);
  }
}

struct State {
  std::mutex mutex;
  std::vector<std::string> counter_names;
  std::vector<std::string> histogram_names;
  std::vector<Shard*> live;
  Shard retained;  // folded-in shards of exited threads
};

State& state() {
  // Leaked on purpose: thread_local shard destructors (any thread, any
  // time up to process exit) must always find the registry alive.
  static State* s = new State;
  return *s;
}

std::uint32_t intern(std::vector<std::string>& names, std::string_view name,
                     std::size_t cap) {
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return static_cast<std::uint32_t>(i);
  }
  if (names.size() >= cap) return static_cast<std::uint32_t>(cap - 1);
  names.emplace_back(name);
  return static_cast<std::uint32_t>(names.size() - 1);
}

struct ThreadShard {
  Shard* shard;

  ThreadShard() : shard(new Shard) {
    State& s = state();
    const std::lock_guard<std::mutex> lock(s.mutex);
    s.live.push_back(shard);
  }

  ~ThreadShard() {
    State& s = state();
    const std::lock_guard<std::mutex> lock(s.mutex);
    fold_shard(s.retained, *shard);
    std::erase(s.live, shard);
    delete shard;
  }
};

Shard& local_shard() {
  thread_local ThreadShard tls;
  return *tls.shard;
}

}  // namespace

Counter::Counter(std::string_view name) {
  State& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  id_ = intern(s.counter_names, name, kMaxCounters);
}

void Counter::add(std::uint64_t delta) const noexcept {
  if (!enabled()) return;
  local_shard().counters[id_].fetch_add(delta, std::memory_order_relaxed);
}

Histogram::Histogram(std::string_view name) {
  State& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  id_ = intern(s.histogram_names, name, kMaxHistograms);
}

void Histogram::observe(std::uint64_t value) const noexcept {
  if (!enabled()) return;
  HistogramCells& h = local_shard().histograms[id_];
  h.count.fetch_add(1, std::memory_order_relaxed);
  h.sum.fetch_add(value, std::memory_order_relaxed);
  h.buckets[histogram_bucket(value)].fetch_add(1, std::memory_order_relaxed);
}

MetricsSnapshot metrics_snapshot() {
  State& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  MetricsSnapshot snap;
  snap.counters.reserve(s.counter_names.size());
  for (std::size_t i = 0; i < s.counter_names.size(); ++i) {
    std::uint64_t total =
        s.retained.counters[i].load(std::memory_order_relaxed);
    for (const Shard* shard : s.live) {
      total += shard->counters[i].load(std::memory_order_relaxed);
    }
    snap.counters.emplace_back(s.counter_names[i], total);
  }
  snap.histograms.reserve(s.histogram_names.size());
  for (std::size_t i = 0; i < s.histogram_names.size(); ++i) {
    HistogramSnapshot h;
    h.name = s.histogram_names[i];
    h.count = s.retained.histograms[i].count.load(std::memory_order_relaxed);
    h.sum = s.retained.histograms[i].sum.load(std::memory_order_relaxed);
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      h.buckets[b] =
          s.retained.histograms[i].buckets[b].load(std::memory_order_relaxed);
    }
    for (const Shard* shard : s.live) {
      h.count += shard->histograms[i].count.load(std::memory_order_relaxed);
      h.sum += shard->histograms[i].sum.load(std::memory_order_relaxed);
      for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
        h.buckets[b] +=
            shard->histograms[i].buckets[b].load(std::memory_order_relaxed);
      }
    }
    snap.histograms.push_back(std::move(h));
  }
  return snap;
}

MetricsSnapshot metrics_delta(const MetricsSnapshot& before,
                              const MetricsSnapshot& after) {
  MetricsSnapshot out;
  out.counters.reserve(after.counters.size());
  for (const auto& [name, value] : after.counters) {
    std::uint64_t base = 0;
    for (const auto& [bname, bvalue] : before.counters) {
      if (bname == name) {
        base = bvalue;
        break;
      }
    }
    out.counters.emplace_back(name, value - base);
  }
  out.histograms.reserve(after.histograms.size());
  for (const auto& h : after.histograms) {
    const HistogramSnapshot* base = nullptr;
    for (const auto& bh : before.histograms) {
      if (bh.name == h.name) {
        base = &bh;
        break;
      }
    }
    HistogramSnapshot d = h;
    if (base != nullptr) {
      d.count -= base->count;
      d.sum -= base->sum;
      for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
        d.buckets[b] -= base->buckets[b];
      }
    }
    out.histograms.push_back(std::move(d));
  }
  return out;
}

double histogram_quantile(const HistogramSnapshot& h, double q) {
  if (h.count == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double target = q * static_cast<double>(h.count);
  double cum = 0.0;
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    if (h.buckets[b] == 0) continue;
    const double in_bucket = static_cast<double>(h.buckets[b]);
    if (cum + in_bucket < target) {
      cum += in_bucket;
      continue;
    }
    if (b == 0) return 0.0;  // bucket 0 holds exact zeros
    // Linear interpolation across the bucket's value range.
    const double lo = static_cast<double>(std::uint64_t{1} << (b - 1));
    const double hi = b >= 63 ? 2.0 * lo : lo * 2.0 - 1.0;
    const double frac = in_bucket > 0.0 ? (target - cum) / in_bucket : 0.0;
    return lo + (hi - lo) * frac;
  }
  return 0.0;
}

std::string metrics_json(const MetricsSnapshot& snap) {
  std::string out;
  out += "{\n  \"schema\": \"byzobs/metrics/v1\",\n  \"counters\": {";
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    out += i == 0 ? "\n    \"" : ",\n    \"";
    detail::append_json_escaped(out, snap.counters[i].first);
    out += "\": " + std::to_string(snap.counters[i].second);
  }
  out += snap.counters.empty() ? "},\n" : "\n  },\n";
  // Buckets are sparse [index, count] pairs; index b covers values in
  // [2^(b-1), 2^b - 1] (b = 0 holds exact zeros).
  out += "  \"histograms\": {";
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    const auto& h = snap.histograms[i];
    out += i == 0 ? "\n    \"" : ",\n    \"";
    detail::append_json_escaped(out, h.name);
    out += "\": {\"count\": " + std::to_string(h.count);
    out += ", \"sum\": " + std::to_string(h.sum);
    out += ", \"p50\": ";
    detail::append_json_double(out, histogram_quantile(h, 0.50));
    out += ", \"p95\": ";
    detail::append_json_double(out, histogram_quantile(h, 0.95));
    out += ", \"p99\": ";
    detail::append_json_double(out, histogram_quantile(h, 0.99));
    out += ", \"buckets\": [";
    bool first = true;
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      if (h.buckets[b] == 0) continue;
      if (!first) out += ", ";
      first = false;
      out += '[';
      out += std::to_string(b);
      out += ", ";
      out += std::to_string(h.buckets[b]);
      out += ']';
    }
    out += "]}";
  }
  out += snap.histograms.empty() ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

bool write_metrics_file(const std::string& path) {
  const std::string doc = metrics_json(metrics_snapshot());
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  return std::fclose(f) == 0 && ok;
}

void reset_metrics() {
  State& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  zero_shard(s.retained);
  for (Shard* shard : s.live) zero_shard(*shard);
}

}  // namespace byz::obs
