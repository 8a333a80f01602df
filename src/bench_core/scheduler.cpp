#include "bench_core/scheduler.hpp"

#include <algorithm>
#include <mutex>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace byz::bench_core {

namespace {

// Observability (pure read-side; inert unless obs::set_enabled): one span
// per trial, tagged with the worker that stole it so the work-stealing
// schedule is visible in the exported trace.
void run_traced_trial(const std::function<void(std::uint64_t)>& fn,
                      std::uint64_t index, unsigned worker) {
  static const obs::Counter obs_trials("scheduler.trials");
  static const obs::Histogram obs_trial_us("scheduler.trial_us");
  const std::uint64_t start_us = obs::trace_now_us();
  {
    obs::Span span("bench.trial");
    span.arg("trial", index).arg("worker", worker);
    fn(index);
  }
  obs_trials.add(1);
  obs_trial_us.observe(obs::trace_now_us() - start_us);
}

}  // namespace

TrialScheduler::TrialScheduler(unsigned jobs) : jobs_(jobs) {
  if (jobs_ == 0) {
    jobs_ = std::max(1u, std::thread::hardware_concurrency());
  }
}

unsigned TrialScheduler::checked_jobs(std::int64_t jobs) {
  const std::int64_t hw = std::max(1u, std::thread::hardware_concurrency());
  if (jobs < 0 || jobs > hw) {
    throw std::invalid_argument(
        "--jobs must be in [0, " + std::to_string(hw) +
        "] (0 = all hardware threads), got " + std::to_string(jobs));
  }
  return static_cast<unsigned>(jobs);
}

void TrialScheduler::for_each(
    std::uint64_t count, const std::function<void(std::uint64_t)>& fn) const {
  if (count == 0) return;
  const unsigned workers =
      static_cast<unsigned>(std::min<std::uint64_t>(jobs_, count));
  if (workers <= 1) {
    for (std::uint64_t i = 0; i < count; ++i) run_traced_trial(fn, i, 0);
    return;
  }

  std::atomic<std::uint64_t> cursor{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  auto worker = [&](unsigned w) {
    // Pool threads get a stable trace name; w == 0 is the caller thread,
    // which keeps its own identity (scenario spans live there).
    if (w != 0 && obs::enabled()) {
      obs::set_trace_thread_name("worker-" + std::to_string(w));
    }
    for (;;) {
      const std::uint64_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        run_traced_trial(fn, i, w);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        // Drain the remaining items without running them.
        cursor.store(count, std::memory_order_relaxed);
        return;
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (unsigned w = 1; w < workers; ++w) {
    pool.emplace_back(worker, w);
  }
  worker(0);
  for (auto& t : pool) t.join();

  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace byz::bench_core
