// Unit tests for ParallelFor, the one parallel primitive the warehouse
// batch calls run on. Its contract: every index in [0, count) runs
// exactly once, on at most min(max(threads, 1), count) threads with the
// caller among them, and the call returns only after the last body did.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "util/thread_pool.h"

namespace xydiff {
namespace {

TEST(ParallelForTest, RunsEveryIndexExactlyOnce) {
  const std::thread::id caller = std::this_thread::get_id();
  for (size_t count : {0u, 1u, 7u, 1000u}) {
    for (int threads : {-1, 0, 1, 2, 4, 8}) {
      const size_t width =
          std::min(static_cast<size_t>(std::max(threads, 1)), count);
      std::vector<std::atomic<int>> ran(count);
      std::mutex mutex;
      std::set<std::thread::id> ids;
      std::vector<size_t> order;
      ParallelFor(count, threads, [&](size_t i) {
        ran[i].fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(mutex);
        ids.insert(std::this_thread::get_id());
        order.push_back(i);
      });
      for (size_t i = 0; i < count; ++i) {
        EXPECT_EQ(ran[i].load(), 1)
            << "index " << i << ", count " << count << ", threads " << threads;
      }
      EXPECT_LE(ids.size(), width)
          << "count " << count << ", threads " << threads;
      if (width == 1) {
        // No thread started: the caller ran every index, in order.
        EXPECT_EQ(ids, std::set<std::thread::id>{caller})
            << "count " << count << ", threads " << threads;
        for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
      }
    }
  }
}

// With two threads and two indices the bodies must overlap: each waits
// (bounded, so a sequential run fails instead of hanging) until both
// have arrived.
TEST(ParallelForTest, TwoThreadsRunTwoBodiesConcurrently) {
  std::mutex mutex;
  std::condition_variable arrived_cv;
  int arrived = 0;
  std::atomic<int> met{0};
  ParallelFor(2, 2, [&](size_t) {
    std::unique_lock<std::mutex> lock(mutex);
    ++arrived;
    arrived_cv.notify_all();
    if (arrived_cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return arrived == 2; })) {
      met.fetch_add(1);
    }
  });
  EXPECT_EQ(met.load(), 2);
}

}  // namespace
}  // namespace xydiff
