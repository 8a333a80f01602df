// Shared trial scheduler for the byzbench orchestrator: a work-stealing
// index pool over util::parallel_for. Work items claim indices from an
// atomic counter, so load-balancing is dynamic, but every item derives its
// own seed from (base_seed, index) with SplitMix64 and writes to its own
// slot — results are bitwise identical for any worker count (the
// determinism contract the tests pin down).
//
// Scenarios, Monte-Carlo sweeps and the examples all share one scheduler,
// so a single --jobs flag governs the whole run: overlay builds inside a
// trial run inline on the trial's worker (util/parallel.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/rng.hpp"

namespace byz::bench_core {

class TrialScheduler {
 public:
  /// `jobs` worker threads; 0 = hardware concurrency.
  explicit TrialScheduler(unsigned jobs = 0);

  /// A command-line --jobs value, checked before any worker starts: it must
  /// lie in [0, hardware threads] (0 = hardware). Throws
  /// std::invalid_argument naming the range, so a negative or huge value
  /// is rejected instead of wrapping into billions of workers.
  [[nodiscard]] static unsigned checked_jobs(std::int64_t jobs);

  [[nodiscard]] unsigned jobs() const noexcept { return jobs_; }

  /// Runs fn(index) for every index in [0, count). Blocks until all items
  /// finish. Items are claimed dynamically (work stealing via a shared
  /// atomic cursor); with jobs() == 1, or when called from inside another
  /// worker, the loop runs inline, no threads. The first exception thrown
  /// by any item is rethrown to the caller after the pool drains.
  void for_each(std::uint64_t count,
                const std::function<void(std::uint64_t)>& fn) const;

  /// Deterministic seed of trial `index` in a series rooted at `base`:
  /// mix_seed(base, index + 1).
  [[nodiscard]] static std::uint64_t trial_seed(std::uint64_t base,
                                                std::uint64_t index) noexcept {
    return util::mix_seed(base, index + 1);
  }

  /// Maps fn over [0, count), collecting results by index — the canonical
  /// deterministic fan-out. fn must not depend on execution order.
  template <typename Fn>
  [[nodiscard]] auto map(std::uint64_t count, Fn&& fn) const
      -> std::vector<decltype(fn(std::uint64_t{0}))> {
    std::vector<decltype(fn(std::uint64_t{0}))> results(count);
    for_each(count, [&](std::uint64_t i) { results[i] = fn(i); });
    return results;
  }

 private:
  unsigned jobs_;
};

}  // namespace byz::bench_core
