#include <algorithm>
#include <vector>

#include "common.h"

namespace perfbench {

namespace {

/// Reference time, in ms, of one Sample() on a 4-vCPU Xeon (2.1 GHz) VM
/// in a quiet period; CPU times are scaled to it.
constexpr double kNominalMs = 30;

/// xorshift64: a fixed stream, so every call does the same work.
struct Stream {
  uint64_t x = 88172645463325252ull;
  uint64_t Next() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  }
};

/// Sorts 100 000 fixed numbers: branches and cache-resident data.
uint64_t SortPart() {
  Stream s;
  std::vector<uint64_t> v(100000);
  for (uint64_t& e : v) e = s.Next();
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// One random cycle through 2^24 slots (64 MiB), built on first use.
const std::vector<uint32_t>& Cycle() {
  static const std::vector<uint32_t> cycle = [] {
    const size_t n = size_t{1} << 24;
    std::vector<uint32_t> order(n);
    for (size_t i = 0; i < n; ++i) order[i] = static_cast<uint32_t>(i);
    Stream s;
    for (size_t i = n; i > 1; --i) std::swap(order[i - 1], order[s.Next() % i]);
    std::vector<uint32_t> next(n);
    for (size_t i = 0; i < n; ++i) next[order[i]] = order[(i + 1) % n];
    return next;
  }();
  return cycle;
}

/// 150 000 dependent loads along the cycle: memory latency, and how
/// much of the shared last-level cache the host's other tenants leave.
uint32_t ChasePart() {
  const std::vector<uint32_t>& cycle = Cycle();
  uint32_t at = 0;
  for (int i = 0; i < 150000; ++i) at = cycle[at];
  return at;
}

volatile uint64_t sink;

}  // namespace

double Reference::Sample() {
  sink = ChasePart();  // the same hops, untimed: loads them into the cache
  const Stopwatch watch;
  sink = SortPart();
  sink = ChasePart();
  const double ms = watch.Read().cpu_s * 1e3;
  samples_.Add(ms);
  return ms > 0 ? kNominalMs / ms : 1;
}

void Reference::Report(RunResult* result) const {
  result->Detail("reference_ms", samples_.Percentile(50), "ms");
  result->Detail("reference_samples", static_cast<double>(samples_.count()),
                 "count");
}

}  // namespace perfbench
