// perfbench: the repository benchmark's measuring program.
//
//   perfbench --workload crawl|site|history --seed N --seconds S
//             --trace 0|1 --out-dir DIR
//
// Prints a `detail` JSON line (sample counts, per-op latencies, checks)
// and then, as the last line, the result object
// {"correct", "attempted", "failed", "metrics"}. Exits 1 when a
// correctness check fails, 2 on bad arguments.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common.h"

namespace {

using perfbench::Metric;

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string MetricsObject(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload crawl|site|history --seed N "
               "--seconds S --trace 0|1 --out-dir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--out-dir") {
      options.out_dir = value;
    } else {
      return Usage();
    }
  }
  if (options.out_dir.empty() ||
      !(options.seconds > 0)) {
    return Usage();
  }
  std::filesystem::create_directories(options.out_dir);

  perfbench::RunResult result;
  if (options.workload == "crawl") {
    result = perfbench::RunCrawl(options);
  } else if (options.workload == "site") {
    result = perfbench::RunSite(options);
  } else if (options.workload == "history") {
    result = perfbench::RunHistory(options);
  } else {
    return Usage();
  }

  for (const std::string& error : result.errors) {
    std::fprintf(stderr, "check failed: %s\n", error.c_str());
  }
  std::printf("{\"detail\": %s}\n", MetricsObject(result.details).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              MetricsObject(result.metrics).c_str());
  std::fflush(stdout);
  return result.correct && result.failed == 0 ? 0 : 1;
}
