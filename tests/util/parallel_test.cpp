#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bench_core/scheduler.hpp"
#include "graph/small_world.hpp"

namespace byz::util {
namespace {

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  for (const std::uint64_t count : {1u, 7u, 64u, 1000u}) {
    for (const std::uint64_t grain : {1u, 3u, 64u, 5000u}) {
      for (const unsigned workers : {1u, 2u, 5u}) {
        std::vector<std::atomic<int>> hits(count);
        parallel_for(
            count, grain, workers, [](unsigned) { return 0; },
            [&](int, std::uint64_t i) { hits[i]++; });
        for (std::uint64_t i = 0; i < count; ++i) {
          EXPECT_EQ(hits[i].load(), 1)
              << "count " << count << " grain " << grain << " workers "
              << workers << " index " << i;
        }
      }
    }
  }
}

TEST(ParallelFor, WorkerCountIsCappedByChunks) {
  EXPECT_EQ(parallel_workers(0, 1, 4), 1u);
  EXPECT_EQ(parallel_workers(10, 1, 4), 4u);
  EXPECT_EQ(parallel_workers(10, 4, 8), 3u);  // chunks of 4, 4 and 2
  EXPECT_EQ(parallel_workers(10, 0, 8), 8u);  // grain 0 counts as 1
  EXPECT_EQ(parallel_workers(1000, 1, 0),
            std::min(1000u, std::max(1u, std::thread::hardware_concurrency())));
}

TEST(ParallelFor, EachWorkerBuildsOneLocalOnItsOwnThread) {
  struct Local {
    std::thread::id thread;
    unsigned worker;
  };
  std::mutex mu;
  std::vector<Local> made;
  std::atomic<int> foreign_bodies{0};
  constexpr unsigned kWorkers = 4;
  const std::thread::id caller = std::this_thread::get_id();
  parallel_for(
      256, 1, kWorkers,
      [&](unsigned worker) {
        const Local local{std::this_thread::get_id(), worker};
        const std::lock_guard<std::mutex> lock(mu);
        made.push_back(local);
        return local;
      },
      [&](Local& local, std::uint64_t) {
        if (local.thread != std::this_thread::get_id()) ++foreign_bodies;
      });
  EXPECT_EQ(foreign_bodies.load(), 0);
  ASSERT_EQ(made.size(), kWorkers);
  std::set<std::thread::id> threads;
  std::set<unsigned> ids;
  for (const Local& l : made) {
    threads.insert(l.thread);
    ids.insert(l.worker);
    // The caller is worker 0.
    EXPECT_EQ(l.worker == 0, l.thread == caller) << l.worker;
  }
  EXPECT_EQ(threads.size(), kWorkers);
  EXPECT_EQ(ids, (std::set<unsigned>{0, 1, 2, 3}));
}

TEST(ParallelFor, NestedCallRunsInlineOnTheCallingThread) {
  std::atomic<int> nested_locals{0};
  std::atomic<int> foreign{0};
  std::atomic<int> nested_indices{0};
  parallel_for(
      8, 1, 4, [](unsigned) { return 0; },
      [&](int, std::uint64_t) {
        EXPECT_EQ(parallel_workers(1000, 1, 4), 1u);
        const std::thread::id outer = std::this_thread::get_id();
        parallel_for(
            16, 1, 4,
            [&](unsigned worker) {
              ++nested_locals;
              EXPECT_EQ(worker, 0u);
              return std::this_thread::get_id();
            },
            [&](std::thread::id made_on, std::uint64_t) {
              if (made_on != outer || std::this_thread::get_id() != outer) {
                ++foreign;
              }
              ++nested_indices;
            });
      });
  EXPECT_EQ(nested_locals.load(), 8);  // one local per nested call
  EXPECT_EQ(nested_indices.load(), 8 * 16);
  EXPECT_EQ(foreign.load(), 0);
  // The flag is restored once the loop returns.
  EXPECT_EQ(parallel_workers(1000, 1, 4), 4u);
}

TEST(ParallelFor, ExceptionReachesTheCallerAfterTheJoin) {
  // Each worker's local counts itself out when its worker finishes; when
  // the exception arrives, every worker must have finished.
  struct Local {
    std::atomic<int>* live;
    explicit Local(std::atomic<int>* l) : live(l) { ++*live; }
    Local(const Local&) = delete;
    Local& operator=(const Local&) = delete;
    ~Local() { --*live; }
  };
  std::atomic<int> live{0};
  for (const unsigned workers : {1u, 4u}) {
    try {
      parallel_for(
          1000, 1, workers, [&](unsigned) { return Local(&live); },
          [&](Local&, std::uint64_t i) {
            if (i == 37) throw std::runtime_error("boom");
          });
      ADD_FAILURE() << "no exception at " << workers << " workers";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom");
      EXPECT_EQ(live.load(), 0) << workers << " workers";
    }
  }
  // A throwing make_local reaches the caller the same way.
  EXPECT_THROW(parallel_for(
                   100, 1, 4,
                   [](unsigned worker) {
                     if (worker == 2) throw std::logic_error("local");
                     return 0;
                   },
                   [](int, std::uint64_t) {}),
               std::logic_error);
}

bool graphs_equal(const graph::Graph& a, const graph::Graph& b) {
  const graph::NodeId n = a.num_nodes();
  if (n != b.num_nodes() || a.num_slots() != b.num_slots()) return false;
  for (graph::NodeId v = 0; v < n; ++v) {
    const auto na = a.neighbors(v);
    const auto nb = b.neighbors(v);
    if (!std::equal(na.begin(), na.end(), nb.begin(), nb.end())) return false;
  }
  return true;
}

/// Deep structural equality of two overlays: params, H, its simple view,
/// G, the per-slot distance annotations and the ball counts.
bool overlays_identical(const graph::Overlay& a, const graph::Overlay& b) {
  const auto& pa = a.params();
  const auto& pb = b.params();
  if (pa.n != pb.n || pa.d != pb.d || pa.k != pb.k || pa.seed != pb.seed ||
      pa.generation != pb.generation || a.k() != b.k()) {
    return false;
  }
  if (!graphs_equal(a.h(), b.h()) ||
      !graphs_equal(a.h_simple(), b.h_simple()) ||
      !graphs_equal(a.g(), b.g())) {
    return false;
  }
  for (graph::NodeId v = 0; v < a.num_nodes(); ++v) {
    const auto da = a.g_dists(v);
    const auto db = b.g_dists(v);
    if (!std::equal(da.begin(), da.end(), db.begin(), db.end())) return false;
  }
  const auto ca = a.ball_counts();
  const auto cb = b.ball_counts();
  return std::equal(ca.begin(), ca.end(), cb.begin(), cb.end());
}

TEST(ParallelFor, OverlayBuiltInsideATrialWorkerEqualsTheThreadedBuild) {
  graph::OverlayParams params;
  params.n = 4096;  // 16 chunks of the ball-count pass and of the G pass
  params.d = 6;
  params.seed = 99;
  // On the main thread both loops fork (given more than one hardware
  // thread); inside a trial worker they run inline. G is built on its
  // first read, so each side reads it where it built the overlay.
  EXPECT_EQ(parallel_workers(params.n, 1, 0),
            std::max(1u, std::thread::hardware_concurrency()));
  const graph::Overlay threaded = graph::Overlay::build(params);
  (void)threaded.g();
  const bench_core::TrialScheduler scheduler(2);
  const auto inline_builds = scheduler.map(2, [&](std::uint64_t) {
    EXPECT_EQ(parallel_workers(params.n, 1, 0), 1u);
    auto overlay = graph::Overlay::build(params);
    (void)overlay.g();
    return overlay;
  });
  for (const auto& o : inline_builds) {
    EXPECT_TRUE(overlays_identical(threaded, o));
  }
  // The comparison can fail: another sample of the same size differs.
  params.seed = 100;
  EXPECT_FALSE(overlays_identical(threaded, graph::Overlay::build(params)));
}

}  // namespace
}  // namespace byz::util
