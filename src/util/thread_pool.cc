#include "util/thread_pool.h"

#include <algorithm>
#include <cstdio>

namespace xydiff {

namespace {

/// Which pool (if any) the current thread belongs to, and its worker
/// index — lets Submit from inside a task prefer the local deque.
thread_local const ThreadPool* tls_pool = nullptr;
thread_local size_t tls_worker = 0;

}  // namespace

ThreadPool::ThreadPool(int threads) {
  const size_t n = static_cast<size_t>(std::max(1, threads));
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  threads_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  Wait();
  {
    MutexLock lock(coord_mutex_);
    stopping_ = true;
    work_cv_.NotifyAll();
  }
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  size_t target;
  {
    MutexLock lock(coord_mutex_);
    // Count the task *before* publishing it: the instant it is in a
    // deque a peer may steal, run, and decrement pending_, and the
    // count must never underflow nor let Wait() observe a transient
    // zero while this task (or children it will submit) is in flight.
    ++pending_;
    ++queued_;
    target = tls_pool == this
                 ? tls_worker  // Continuation: stay cache-warm here.
                 : next_submit_++ % workers_.size();
  }
  {
    MutexLock lock(workers_[target]->mutex);
    workers_[target]->tasks.push_front(std::move(task));
  }
  work_cv_.NotifyOne();
}

bool ThreadPool::TryTake(size_t self, std::function<void()>* task) {
  // Own deque first, front (newest, cache-warm)...
  {
    Worker& own = *workers_[self];
    MutexLock lock(own.mutex);
    if (!own.tasks.empty()) {
      *task = std::move(own.tasks.front());
      own.tasks.pop_front();
      return true;
    }
  }
  // ...then steal from the back (oldest) of the others, starting after
  // self so victims rotate.
  for (size_t k = 1; k < workers_.size(); ++k) {
    Worker& victim = *workers_[(self + k) % workers_.size()];
    MutexLock lock(victim.mutex);
    if (!victim.tasks.empty()) {
      *task = std::move(victim.tasks.back());
      victim.tasks.pop_back();
      return true;
    }
  }
  return false;
}

void ThreadPool::WorkerLoop(size_t self) {
  tls_pool = this;
  tls_worker = self;
  for (;;) {
    std::function<void()> task;
    if (TryTake(self, &task)) {
      {
        MutexLock lock(coord_mutex_);
        --queued_;
      }
      task();
      MutexLock lock(coord_mutex_);
      if (--pending_ == 0) idle_cv_.NotifyAll();
      continue;
    }
    MutexLock lock(coord_mutex_);
    if (stopping_) return;
    // Re-check under the lock: a Submit may have raced the steal scan.
    // A bounded wait (not a predicate loop) suffices — waking early or
    // spuriously only costs one more TryTake scan. Sleep whenever no
    // *queued* task is claimable — peers merely *running* long tasks
    // (pending_ > 0) leave nothing to steal, and spinning on them
    // starves the very tasks being waited for on small machines.
    if (queued_ == 0) {
      work_cv_.WaitFor(coord_mutex_, std::chrono::milliseconds(50));
    }
    if (stopping_) return;
  }
}

void ThreadPool::Wait() {
  MutexLock lock(coord_mutex_);
  while (pending_ != 0) idle_cv_.Wait(coord_mutex_);
}

int ThreadPool::DefaultThreadCount() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 4 : static_cast<int>(hw);
}

std::string PipelineStats::ToString() const {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line), "%-10s %10s %8s %8s %12s\n", "stage",
                "items", "failed", "retries", "stall_s");
  out += line;
  for (const StageStats& s : stages) {
    std::snprintf(line, sizeof(line), "%-10s %10zu %8zu %8zu %12.3f\n",
                  s.name.c_str(), s.items, s.failed, s.retries,
                  s.stall_seconds);
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "peak in flight %zu, degraded slots %zu, wall %.3f s\n",
                peak_in_flight, degraded_slots, wall_seconds);
  out += line;
  if (shed_slots + quarantined_slots + deadline_slots + cancelled_slots > 0) {
    std::snprintf(line, sizeof(line),
                  "shed %zu, quarantined %zu, deadline %zu, cancelled %zu\n",
                  shed_slots, quarantined_slots, deadline_slots,
                  cancelled_slots);
    out += line;
  }
  return out;
}

}  // namespace xydiff
