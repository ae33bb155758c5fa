#ifndef XYDIFF_UTIL_THREAD_POOL_H_
#define XYDIFF_UTIL_THREAD_POOL_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "util/annotations.h"
#include "util/mutex.h"

namespace xydiff {

/// A work-stealing thread pool for the warehouse's batch pipelines.
///
/// Each worker owns a deque: it pushes and pops its own tasks at the
/// front (LIFO, cache-warm) and steals from the *back* of a victim's
/// deque when its own runs dry (FIFO, oldest first — the classic
/// Blumofe/Leiserson discipline). `Submit` from a non-worker thread
/// round-robins across deques so a batch spreads before stealing kicks
/// in; `Submit` from inside a task goes to the calling worker's own
/// deque, which is what makes continuation-style pipelines cheap.
///
/// Lock discipline (enforced by `-Wthread-safety` under the `analyze`
/// preset): `pending_`/`next_submit_`/`stopping_` are guarded by
/// `coord_mutex_`, each deque by its worker's own mutex. The PR 2
/// submit/steal race — publishing a task before counting it, letting a
/// peer's decrement underflow `pending_` — is now a compile-time
/// invariant: no path can touch `pending_` without `coord_mutex_`.
///
/// Tasks must not block on other tasks' *submission*. The pool is
/// fixed-size and joins in the destructor; `Wait` blocks until every
/// submitted task has finished.
class ThreadPool {
 public:
  /// Creates `threads` workers (clamped to >= 1).
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Never blocks.
  void Submit(std::function<void()> task) XY_EXCLUDES(coord_mutex_);

  /// Blocks until all tasks submitted so far have completed.
  void Wait() XY_EXCLUDES(coord_mutex_);

  int thread_count() const { return static_cast<int>(workers_.size()); }

  /// Reasonable default width for CPU-bound batch work.
  static int DefaultThreadCount();

 private:
  struct Worker {
    Mutex mutex;
    /// Front: own; back: stolen.
    std::deque<std::function<void()>> tasks XY_GUARDED_BY(mutex);
  };

  void WorkerLoop(size_t self) XY_EXCLUDES(coord_mutex_);
  bool TryTake(size_t self, std::function<void()>* task)
      XY_EXCLUDES(coord_mutex_);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  // Coordination: pending_ counts queued + running tasks; workers sleep
  // on work_cv_ when every deque is empty, Wait sleeps on idle_cv_.
  Mutex coord_mutex_;
  CondVar work_cv_;
  CondVar idle_cv_;
  size_t pending_ XY_GUARDED_BY(coord_mutex_) = 0;
  /// Tasks published but not yet claimed by a worker. Idle workers
  /// sleep when this is zero — pending_ alone cannot tell "work to
  /// steal" from "peers busy running", and spinning on the latter
  /// starves the running tasks on machines with few cores.
  size_t queued_ XY_GUARDED_BY(coord_mutex_) = 0;
  /// Round-robin cursor for external submits.
  size_t next_submit_ XY_GUARDED_BY(coord_mutex_) = 0;
  bool stopping_ XY_GUARDED_BY(coord_mutex_) = false;
};

/// Lock-free running maximum: raises `target` to at least `value`.
/// The pipeline uses it for its peak-in-flight high-water mark, sampled
/// from many workers at once.
inline void UpdateAtomicMax(std::atomic<size_t>& target, size_t value) {
  size_t current = target.load(std::memory_order_relaxed);
  while (value > current &&
         !target.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
  }
}

/// Per-stage counters of one pipeline run.
struct StageStats {
  std::string name;
  size_t items = 0;          ///< Items processed by the stage.
  size_t failed = 0;         ///< Items that left the pipeline here.
  size_t retries = 0;        ///< Transient-I/O retries absorbed here.
  double stall_seconds = 0;  ///< Time a worker waited to hand an item on.
                             ///< DiffBatch carries each slot through every
                             ///< stage itself, so it always reports 0.
};

/// Counters for a whole DiffBatch-style pipeline run; see
/// DESIGN.md "Parallel warehouse pipeline" for how to read them.
struct PipelineStats {
  std::vector<StageStats> stages;
  size_t peak_in_flight = 0;  ///< Max documents alive at once.
  size_t degraded_slots = 0;  ///< Slots that succeeded only after retries,
                              ///< or completed without their side effects
                              ///< (e.g. persistence gave up) — per-slot
                              ///< degradation, distinct from failures.
  // Overload accounting (DESIGN.md §3.17). These four partition the
  // slots that the pipeline declined or abandoned, by cause:
  size_t shed_slots = 0;        ///< Admission control: a byte/slot budget
                                ///< would be exceeded (kResourceExhausted).
  size_t quarantined_slots = 0; ///< Circuit breaker open for the URL, or
                                ///< warehouse degraded (kUnavailable).
  size_t deadline_slots = 0;    ///< Context deadline fired (kDeadlineExceeded).
  size_t cancelled_slots = 0;   ///< Context cancelled (kCancelled).
  double wall_seconds = 0;

  /// Human-readable multi-line table.
  std::string ToString() const;
};

}  // namespace xydiff

#endif  // XYDIFF_UTIL_THREAD_POOL_H_
