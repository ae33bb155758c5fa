// Unit tests for the work-stealing pool the warehouse pipeline runs on.
// The pool's contract: every submitted task runs exactly once, Wait()
// returns only after the last task (and every task it spawned
// transitively) finished, and tasks may Submit from inside a worker
// without deadlock.

#include <atomic>
#include <functional>
#include <vector>

#include "gtest/gtest.h"
#include "util/thread_pool.h"

namespace xydiff {
namespace {

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  constexpr int kTasks = 1000;
  std::vector<std::atomic<int>> ran(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&ran, i] { ran[i].fetch_add(1, std::memory_order_relaxed); });
  }
  pool.Wait();
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(ran[i].load(), 1) << "task " << i;
  }
}

TEST(ThreadPoolTest, SingleThreadPoolStillCompletes) {
  ThreadPool pool(1);
  std::atomic<int> sum{0};
  for (int i = 1; i <= 100; ++i) {
    pool.Submit([&sum, i] { sum.fetch_add(i, std::memory_order_relaxed); });
  }
  pool.Wait();
  EXPECT_EQ(sum.load(), 5050);
}

// Tasks submitted from inside a task (the pipeline's "push downstream"
// shape) must run before Wait() returns, however deep the chain.
TEST(ThreadPoolTest, NestedSubmitsCompleteBeforeWait) {
  ThreadPool pool(3);
  std::atomic<int> depth_sum{0};
  std::function<void(int)> spawn = [&](int depth) {
    depth_sum.fetch_add(1, std::memory_order_relaxed);
    if (depth < 6) {
      pool.Submit([&spawn, depth] { spawn(depth + 1); });
      pool.Submit([&spawn, depth] { spawn(depth + 1); });
    }
  };
  pool.Submit([&spawn] { spawn(0); });
  pool.Wait();
  // A full binary tree of depth 6: 2^7 - 1 nodes.
  EXPECT_EQ(depth_sum.load(), 127);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 1);
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPoolTest, WaitWithNoTasksReturnsImmediately) {
  ThreadPool pool(4);
  pool.Wait();  // Must not hang.
  SUCCEED();
}

TEST(ThreadPoolTest, ThreadCountIsClampedToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_GE(pool.thread_count(), 1);
  std::atomic<bool> ran{false};
  pool.Submit([&ran] { ran.store(true); });
  pool.Wait();
  EXPECT_TRUE(ran.load());
}

TEST(PipelineStatsTest, ToStringListsEveryStage) {
  PipelineStats stats;
  stats.stages.push_back({"parse", 100, 2, 0, 0.25});
  stats.stages.push_back({"diff", 98, 0, 5, 0.0});
  stats.peak_in_flight = 12;
  stats.degraded_slots = 4;
  stats.wall_seconds = 1.5;
  const std::string text = stats.ToString();
  EXPECT_NE(text.find("parse"), std::string::npos);
  EXPECT_NE(text.find("diff"), std::string::npos);
  EXPECT_NE(text.find("100"), std::string::npos);
  EXPECT_NE(text.find("retries"), std::string::npos);
  EXPECT_NE(text.find("degraded slots 4"), std::string::npos);
}

}  // namespace
}  // namespace xydiff
