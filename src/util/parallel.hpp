// The library's one fork/join loop. The overlay's ball-count and G
// passes and bench_core's trial scheduler start their threads here, and
// nowhere else.
//
// A call made on a thread that is already running a parallel_for body runs
// inline: inside the trial scheduler's workers the trials already fill the
// cores, so an overlay build there starts no thread of its own. The caller
// counts as a worker too, so a one-worker loop (`--jobs 1`) keeps
// everything nested in it on one thread.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

namespace byz::util {

namespace detail {
/// True while this thread runs a parallel_for body, the caller included.
inline thread_local bool in_parallel_for = false;
}  // namespace detail

/// The number of workers parallel_for(count, grain, max_workers, ...) uses:
/// min(max_workers, or hardware threads when 0, chunks of `grain`), and 1
/// on a thread that is already a worker.
[[nodiscard]] inline unsigned parallel_workers(std::uint64_t count,
                                               std::uint64_t grain,
                                               unsigned max_workers) noexcept {
  if (count == 0 || detail::in_parallel_for) return 1;
  grain = std::max<std::uint64_t>(grain, 1);
  const std::uint64_t chunks = count / grain + (count % grain != 0);
  const unsigned limit =
      max_workers != 0 ? max_workers
                       : std::max(1u, std::thread::hardware_concurrency());
  return static_cast<unsigned>(std::min<std::uint64_t>(limit, chunks));
}

/// Runs body(local, i) for every i in [0, count). Workers claim chunks of
/// `grain` indices from one atomic cursor; the caller is worker 0. Each
/// worker calls make_local(worker) once, on its own thread, and keeps the
/// result on its own stack (per-worker scratch in one shared array would
/// false-share). The first exception thrown by make_local or body stops
/// further claims and is rethrown after every worker has joined. If the
/// system refuses a thread, the workers already running claim its chunks.
template <typename MakeLocal, typename Body>
void parallel_for(std::uint64_t count, std::uint64_t grain,
                  unsigned max_workers, MakeLocal&& make_local, Body&& body) {
  if (count == 0) return;
  grain = std::max<std::uint64_t>(grain, 1);
  const unsigned workers = parallel_workers(count, grain, max_workers);

  std::atomic<std::uint64_t> cursor{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  const auto run = [&](unsigned worker) {
    const bool outer = std::exchange(detail::in_parallel_for, true);
    try {
      auto local = make_local(worker);
      for (;;) {
        const std::uint64_t begin =
            cursor.fetch_add(grain, std::memory_order_relaxed);
        if (begin >= count) break;
        const std::uint64_t end = count - begin > grain ? begin + grain : count;
        for (std::uint64_t i = begin; i < end; ++i) body(local, i);
      }
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
      cursor.store(count, std::memory_order_relaxed);
    }
    detail::in_parallel_for = outer;
  };

  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  try {
    for (unsigned w = 1; w < workers; ++w) pool.emplace_back(run, w);
  } catch (const std::system_error&) {
    // Fewer threads than asked: the loop still covers every index.
  }
  run(0);
  for (auto& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace byz::util
