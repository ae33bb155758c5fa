// Shared pieces of the benchmark harness: run options, result reporting,
// latency statistics, input generation and the per-layer probes that
// replay one document's steps through the library's public calls.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "monitor/subscription.h"
#include "simulator/change_simulator.h"
#include "util/arena.h"
#include "util/env.h"
#include "util/random.h"
#include "util/status.h"
#include "version/repository.h"
#include "version/storage.h"
#include "version/warehouse.h"
#include "xml/document.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// CPU seconds that every thread of this process has run so far. The
/// kernel leaves out the time the hypervisor gave the vCPU to another
/// guest (steal time), so on a shared host this clock, unlike the wall
/// clock, does not run on while the neighbours are busy.
double ProcessCpuSeconds();

/// Wall and process CPU seconds of one timed stretch.
struct Elapsed {
  double wall_s = 0;
  double cpu_s = 0;
};

/// Reads both clocks at construction and at Read().
class Stopwatch {
 public:
  Stopwatch() : wall_(Clock::now()), cpu_(ProcessCpuSeconds()) {}
  Elapsed Read() const {
    return {SecondsBetween(wall_, Clock::now()), ProcessCpuSeconds() - cpu_};
  }

 private:
  Clock::time_point wall_;
  double cpu_;
};

/// Command-line options of one run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where the span file of a traced run goes.
  std::string out_dir;
};

/// A named metric with its unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload hands back to main(): the result line, plus details
/// that are printed on the line before it.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;   ///< The BENCHMARK.json metrics.
  std::vector<Metric> details;   ///< Everything else worth printing.
  std::vector<std::string> errors;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Detail(std::string name, double value, std::string unit) {
    details.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a failed correctness check; the run then exits non-zero.
  void Fail(std::string message) {
    correct = false;
    if (errors.size() < 20) errors.push_back(std::move(message));
  }
};

/// Samples of one quantity (latencies in ms, rates, set-up seconds).
class Samples {
 public:
  void Add(double value) { samples_.push_back(value); }
  size_t count() const { return samples_.size(); }
  /// Linear-interpolated percentile, p in [0, 100]; 0 when empty.
  double Percentile(double p) const;
  /// The highest of p50/p75/p90/p95/p99/p99.9 with at least ten samples
  /// beyond it (0 when there are fewer than 20 samples).
  double TailRank() const;
  /// Adds `<prefix>_p50_ms`, `<prefix>_pNN_ms` (NN = TailRank()) and
  /// `<prefix>_samples` to the details; the samples are latencies in ms.
  void Report(const std::string& prefix, RunResult* result) const;

 private:
  std::vector<double> samples_;
};

/// A fixed piece of work that calls no library code (a sort, and a walk
/// through 64 MiB), timed in CPU time between the workload's own steps.
/// On a 4-vCPU Xeon VM that shares its host, the other tenants slowed
/// the VM by up to 1.6x for minutes at a time without any steal time to
/// show for it, and the reference slowed with it. Each CPU time a
/// workload reports as a bounded figure is multiplied by the factor of
/// the reference sample taken right after it, which takes out most of
/// that.
class Reference {
 public:
  /// Times the reference once and returns nominal ÷ its time: the factor
  /// that brings the CPU times taken since the previous sample to the
  /// speed of the machine the nominal time was measured on.
  double Sample();
  /// Adds the median `reference_ms` and sample count to the details.
  void Report(RunResult* result) const;

 private:
  Samples samples_;  ///< ms per sample
};

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// `n` documents whose sizes are the n quantiles of GenerateWebCorpus's
/// log-normal size law (WebCorpusOptions defaults: median 8 KiB, sigma
/// 1.8, clamped to 100 B .. 1 MiB), in a seed-shuffled order. Content is
/// drawn from `rng`. Quantile sizes keep the byte volume the same on
/// every seed, so runs on different seeds measure the same amount of
/// work. Documents carry initial XIDs.
std::vector<xydiff::XmlDocument> StratifiedWebCorpus(xydiff::Rng* rng,
                                                     size_t n);

/// DiffBatch options of every workload: `threads` workers, persisting
/// under `store` through `env`; everything else at its default.
xydiff::Warehouse::PipelineOptions Pipeline(const std::string& store,
                                            int threads, xydiff::Env* env);

/// Appends words of the text nodes under `node` until `words` holds
/// `limit`, tokenized as the full-text index does.
void CollectWords(const xydiff::XmlNode* node, size_t limit,
                  std::vector<std::string>* words);

/// Generates the next version of `*doc` in place and returns its text.
xydiff::Result<std::string> NextVersion(xydiff::XmlDocument* doc,
                                        const xydiff::ChangeSimOptions& profile,
                                        xydiff::Rng* rng);

/// Sums of what the per-layer probes observed.
struct LayerTotals {
  // xml
  double parse_s = 0;
  uint64_t parse_bytes = 0;
  // core, from DiffStats
  double diff_s = 0, phase12_s = 0, phase3_s = 0, phase4_s = 0, phase5_s = 0;
  double candidate_index_s = 0;
  uint64_t nodes = 0, nodes_new = 0, queue_pops = 0,
           candidates_scanned = 0, subtree_matches = 0, matched_nodes = 0;
  // repository
  double commit_s = 0, checkout_s = 0;
  uint64_t commits = 0, checkouts = 0, applications = 0;
  // delta
  double serialize_xml_s = 0, encode_s = 0, decode_s = 0, apply_s = 0;
  uint64_t xml_delta_bytes = 0, binary_delta_bytes = 0;
  // monitor
  double alert_s = 0, index_build_s = 0, lookup_s = 0;
  uint64_t alerts = 0;
  // storage
  double save_s = 0, load_s = 0;
  uint64_t saved_docs = 0;
};

class Tracer;

/// Replays the steps a warehouse slot performs, one public call at a
/// time, each inside its own span, and sums them into LayerTotals.
class Probe {
 public:
  /// `alerter` may be null (no alert evaluation). With `reuse_arenas`,
  /// Parse recycles arenas through an ArenaPool as DiffBatch does.
  Probe(Tracer* tracer, LayerTotals* totals, const xydiff::Alerter* alerter,
        bool reuse_arenas)
      : tracer_(tracer),
        totals_(totals),
        alerter_(alerter),
        reuse_arenas_(reuse_arenas) {}

  xydiff::Result<xydiff::XmlDocument> Parse(std::string_view text);

  /// Commit → SerializeDelta → DeltaNodeIndex + Alerter::Evaluate: the
  /// steps a DiffBatch slot runs after parsing. Returns the XML delta
  /// size; the superseded version is left in `*old_version`.
  xydiff::Result<size_t> Commit(xydiff::VersionRepository* repo,
                                xydiff::XmlDocument doc,
                                xydiff::XmlDocument* old_version);

  /// The probes DiffBatch has no step for, run apart from the replayed
  /// steps so that they do not slow them: EncodeDeltaBinary and
  /// DecodeDeltaBinary of the newest delta of `repo`, then DiffTree::Build,
  /// signatures and the CandidateIndex constructor over `old_version`
  /// (inside the diff that build is counted as Phase 3).
  xydiff::Status ProbeCommit(const xydiff::VersionRepository& repo,
                             xydiff::XmlDocument* old_version);

  /// VersionRepository::Checkout of `version`, then the same
  /// reconstruction as a plain backward replay of ApplyDeltaInverse
  /// calls. Both must serialize to `expected`; returns false otherwise.
  bool Checkout(const xydiff::VersionRepository& repo, int version,
                std::string_view expected);

  xydiff::Status SaveBatch(const std::vector<xydiff::RepositorySaveSlot>& slots,
                           const std::string& parent, xydiff::Env* env);

  xydiff::Result<xydiff::VersionRepository> Load(const std::string& directory,
                                                 xydiff::Env* env);

  /// Time to decode every delta of `repo`'s chain from its binary form.
  xydiff::Status DecodeChain(const xydiff::VersionRepository& repo);

 private:
  Tracer* tracer_;
  LayerTotals* totals_;
  const xydiff::Alerter* alerter_;
  bool reuse_arenas_;
  xydiff::ArenaPool arenas_;
};

struct WarehouseFigures {
  double scaling_2t = 0;
  double self_s = 0;
  double stall_s = 0;
  double peak_in_flight = 0;
};
struct StorageFigures {
  /// Save ms per document, last window ÷ first window; 0 where nothing is
  /// saved or nothing grows.
  double save_growth = 0;
  double unpersisted_first_versions = 0;
  double input_bytes = 0;  ///< XML bytes ingested, for the per-byte ratios.
};
struct TraceFigures {
  double overhead_s = 0;
  double unattributed_s = 0;
  double wall_s = 0;  ///< Printed as a detail, next to unattributed_s.
};
struct StorageCounters;
/// Adds every per-layer metric to `result`; `io` is what the timing Env
/// counted for the saves in `t`. Layers a workload does not exercise
/// report 0 work and 0 time.
void AddLayerMetrics(const LayerTotals& t, const StorageCounters& io,
                     const StorageFigures& storage,
                     const WarehouseFigures& warehouse,
                     const TraceFigures& trace, RunResult* result);

/// Adds the figures that traced and untraced runs of the same seed and
/// `--seconds` must agree on exactly, taken over the same prefix of the
/// workload's inputs: `agree.prefix` (weeks, commits or ops), delta and
/// new-version bytes, `agree.delta_ratio`, alerts and failed ops. run.py
/// compares them across the two runs.
void AddAgreement(double prefix, uint64_t delta_bytes, uint64_t new_bytes,
                  uint64_t alerts, uint64_t failed, RunResult* result);

/// Serializes a document the way the inputs were generated.
std::string Text(const xydiff::XmlDocument& doc);

/// Workload entry points.
RunResult RunCrawl(const RunOptions& options);
RunResult RunSite(const RunOptions& options);
RunResult RunHistory(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
