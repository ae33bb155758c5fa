#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

namespace xydiff {

void ParallelFor(size_t count, int threads,
                 const std::function<void(size_t)>& body) {
  const size_t width =
      std::min(static_cast<size_t>(std::max(threads, 1)), count);
  std::atomic<size_t> next{0};
  const auto claim_loop = [&] {
    for (size_t i = next.fetch_add(1, std::memory_order_relaxed); i < count;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      body(i);
    }
  };
  std::vector<std::thread> helpers;
  for (size_t t = 1; t < width; ++t) helpers.emplace_back(claim_loop);
  claim_loop();
  for (std::thread& helper : helpers) helper.join();
}

int DefaultThreadCount() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 4 : static_cast<int>(hw);
}

}  // namespace xydiff
