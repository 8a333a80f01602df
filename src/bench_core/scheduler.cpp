#include "bench_core/scheduler.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <thread>

#include "obs/trace.hpp"
#include "util/parallel.hpp"

namespace byz::bench_core {

namespace {

// Observability (pure read-side; inert unless obs::set_enabled): one span
// per trial, tagged with the worker that stole it so the work-stealing
// schedule is visible in the exported trace.
void run_traced_trial(const std::function<void(std::uint64_t)>& fn,
                      std::uint64_t index, unsigned worker) {
  obs::Span span("bench.trial");
  span.arg("trial", index).arg("worker", worker);
  fn(index);
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
  util::parallel_for(
      count, 1, jobs_,
      [](unsigned worker) {
        // Pool threads get a stable trace name; worker 0 is the caller
        // thread, which keeps its own identity (scenario spans live there).
        if (worker != 0 && obs::enabled()) {
          obs::set_trace_thread_name("worker-" + std::to_string(worker));
        }
        return worker;
      },
      [&](unsigned worker, std::uint64_t i) {
        run_traced_trial(fn, i, worker);
      });
}

}  // namespace byz::bench_core
