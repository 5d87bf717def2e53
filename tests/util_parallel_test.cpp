// util/parallel: exception propagation across the worker pool. A throw
// escaping a worker thread is std::terminate — the original sweep
// crash-on-throw bug — so parallel_for must capture the first exception,
// drain the remaining indices, join every worker and rethrow on the caller.
#include "util/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/obs.h"

namespace cbma::util {
namespace {

TEST(ParallelFor, CoversAllIndicesExactlyOnce) {
  constexpr std::size_t kN = 97;
  std::vector<std::atomic<int>> visits(kN);
  for (auto& v : visits) v = 0;
  parallel_for(kN, [&](std::size_t i) { ++visits[i]; }, 4);
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ParallelFor, BodyThrowReachesCallerNotTerminate) {
  // The regression: before the fix this call aborted the whole process.
  std::atomic<std::size_t> completed{0};
  EXPECT_THROW(
      parallel_for(
          64,
          [&](std::size_t i) {
            if (i == 13) throw std::runtime_error("injected");
            ++completed;
          },
          4),
      std::runtime_error);
  // The throwing index never completes; everything that ran before the
  // failure keeps its result (partial sweeps stay usable).
  EXPECT_LE(completed.load(), 63u);
}

TEST(ParallelFor, SerialPathPropagatesToo) {
  std::size_t completed = 0;
  EXPECT_THROW(parallel_for(
                   8,
                   [&](std::size_t i) {
                     if (i == 3) throw std::invalid_argument("injected");
                     ++completed;
                   },
                   1),
               std::invalid_argument);
  EXPECT_EQ(completed, 3u);  // serial: exactly the indices before the throw
}

TEST(ParallelFor, EveryIndexThrowingStillOneException) {
  // Concurrent failures race on the capture slot; exactly one wins and the
  // pool still joins cleanly.
  EXPECT_THROW(
      parallel_for(
          32, [](std::size_t) { throw std::runtime_error("all fail"); }, 8),
      std::runtime_error);
}

TEST(ParallelFor, DrainSkipsWorkAfterFailure) {
  // Once a worker fails, remaining indices are drained unexecuted — a
  // poisoned sweep must not keep burning CPU on the other points.
  std::atomic<std::size_t> executed{0};
  EXPECT_THROW(parallel_for(
                   10000,
                   [&](std::size_t i) {
                     if (i == 0) throw std::runtime_error("early");
                     ++executed;
                   },
                   2),
               std::runtime_error);
  EXPECT_LT(executed.load(), 10000u);
}

TEST(ParallelFor, ZeroItemsRunsNothing) {
  std::atomic<std::size_t> calls{0};
  parallel_for(0, [&](std::size_t) { ++calls; }, 4);
  EXPECT_EQ(calls.load(), 0u);
}

TEST(ParallelFor, SingleItemRunsInline) {
  // n=1 clamps the pool to one worker: the body runs on the calling thread
  // (no spawn), which the thread id proves.
  std::thread::id body_thread;
  parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    body_thread = std::this_thread::get_id();
  });
  EXPECT_EQ(body_thread, std::this_thread::get_id());
}

TEST(ParallelFor, MoreWorkersThanItemsStillCoversExactlyOnce) {
  constexpr std::size_t kN = 3;
  std::vector<std::atomic<int>> visits(kN);
  for (auto& v : visits) v = 0;
  parallel_for(kN, [&](std::size_t i) { ++visits[i]; }, 16);
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ParallelFor, MaxWorkersOneIsSequential) {
  // The workers<=1 fast path: everything on the calling thread, in order.
  std::vector<std::size_t> order;
  const std::thread::id caller = std::this_thread::get_id();
  parallel_for(
      8,
      [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);  // no lock needed: single thread
      },
      1);
  ASSERT_EQ(order.size(), 8u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, StatsUntouchedWhenProfilerOff) {
  // Strict identity: with the profiler off the stats shape is filled but
  // nothing is measured — no clock reads, no per-worker vectors.
  ASSERT_FALSE(profiler::enabled()) << "test assumes profiler-off default";
  ParallelStats stats;
  stats.wall_ns = 123;  // stale garbage the call must clear
  parallel_for(16, [](std::size_t) {}, 4, &stats);
  EXPECT_FALSE(stats.collected);
  EXPECT_EQ(stats.items, 16u);
  EXPECT_EQ(stats.workers, 4u);
  EXPECT_EQ(stats.wall_ns, 0u);
  EXPECT_TRUE(stats.worker_busy_ns.empty());
  EXPECT_TRUE(stats.worker_items.empty());
  EXPECT_DOUBLE_EQ(stats.imbalance(), 1.0);
}

}  // namespace
}  // namespace cbma::util
