// In-memory span recorder for traced runs. Spans are recorded only by the
// harness, around each call into a library layer; the library itself is
// not instrumented. Single-threaded: every traced replay runs on the
// harness thread.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common.h"

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0;  ///< Seconds since the tracer was created.
    double end = 0;
    int64_t parent = -1;  ///< Index of the enclosing span, -1 for none.
    uint64_t request = 0;
  };

  Tracer() : epoch_(Clock::now()) {}

  /// Opens a span under the innermost open one.
  int64_t Begin(std::string_view name);
  void End(int64_t id);

  /// Request id stamped on spans opened from now on.
  void SetRequest(uint64_t request) { request_ = request; }
  uint64_t NextRequest() { return ++last_request_; }

  double Now() const { return SecondsBetween(epoch_, Clock::now()); }

  /// Marks the current end of the span list, for TotalSince.
  size_t Mark() const { return spans_.size(); }
  /// Summed duration of spans named `name` opened since `mark`.
  double TotalSince(std::string_view name, size_t mark) const;

  /// Length of [from, to) covered by no span whose name starts with one
  /// of `prefixes`.
  double Uncovered(const std::vector<std::string>& prefixes, double from,
                   double to) const;

  size_t size() const { return spans_.size(); }

  /// Writes every span as a JSON array (one object per line).
  bool Write(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
  uint64_t request_ = 0;
  uint64_t last_request_ = 0;
};

/// RAII span; a null tracer records nothing.
class Scope {
 public:
  Scope(Tracer* tracer, std::string_view name)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->Begin(name) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int64_t id_;
};

/// Name prefixes of the spans that account for time: the library's
/// layers, plus `bench.` for the harness's own work (checks, copies).
const std::vector<std::string>& LayerPrefixes();

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
