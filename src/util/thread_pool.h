#ifndef XYDIFF_UTIL_THREAD_POOL_H_
#define XYDIFF_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <functional>

namespace xydiff {

/// Runs `body(i)` exactly once for every `i` in `[0, count)`, on
/// `min(max(threads, 1), count)` threads of which the calling thread is
/// one, and returns once every call has returned.
///
/// Each thread claims the next index from one shared atomic counter, so
/// a slow index never holds up the others' claims — the "one document
/// per worker" grain of the warehouse's batch calls (DESIGN.md §3.10).
/// With `threads <= 1` or `count <= 1` no thread is started: every
/// index runs on the calling thread, in order. Indices may otherwise run
/// in any order; `body` must synchronise whatever they share.
void ParallelFor(size_t count, int threads,
                 const std::function<void(size_t)>& body);

/// Reasonable default width for CPU-bound batch work: the hardware
/// concurrency, or 4 when it is unknown.
int DefaultThreadCount();

}  // namespace xydiff

#endif  // XYDIFF_UTIL_THREAD_POOL_H_
