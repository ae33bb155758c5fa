#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

int64_t Tracer::Begin(std::string_view name) {
  Span span;
  span.name = std::string(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request_;
  span.start = Now();
  spans_.push_back(std::move(span));
  const int64_t id = static_cast<int64_t>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::End(int64_t id) {
  spans_[static_cast<size_t>(id)].end = Now();
  // Spans close innermost-first (Scope is RAII), so `id` is on top.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

double Tracer::TotalSince(std::string_view name, size_t mark) const {
  double total = 0;
  for (size_t i = mark; i < spans_.size(); ++i) {
    if (spans_[i].name == name) total += spans_[i].end - spans_[i].start;
  }
  return total;
}

double Tracer::Uncovered(const std::vector<std::string>& prefixes,
                         double from, double to) const {
  std::vector<std::pair<double, double>> covered;
  for (const Span& s : spans_) {
    const bool match = std::any_of(
        prefixes.begin(), prefixes.end(),
        [&](const std::string& p) { return s.name.rfind(p, 0) == 0; });
    if (!match) continue;
    const double a = std::max(s.start, from);
    const double b = std::min(s.end, to);
    if (a < b) covered.emplace_back(a, b);
  }
  std::sort(covered.begin(), covered.end());
  double union_length = 0;
  double reach = from;
  for (const auto& [a, b] : covered) {
    if (b <= reach) continue;
    union_length += b - std::max(a, reach);
    reach = b;
  }
  return (to - from) - union_length;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_s\":%.9f,"
                 "\"end_s\":%.9f,\"parent\":%lld,\"request\":%llu}%s\n",
                 i, s.name.c_str(), s.start, s.end,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

const std::vector<std::string>& LayerPrefixes() {
  static const std::vector<std::string> kPrefixes = {
      "xml.",     "core.",      "delta.",     "repository.",
      "storage.", "warehouse.", "monitor.",   "bench."};
  return kPrefixes;
}

}  // namespace perfbench
