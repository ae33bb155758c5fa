#include "common.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>

#include "core/candidates.h"
#include "delta/apply.h"
#include "delta/codec.h"
#include "delta/delta_xml.h"
#include "delta/diff_tree.h"
#include "delta/node_index.h"
#include "delta/signature.h"
#include "monitor/index.h"
#include "simulator/doc_generator.h"
#include "simulator/web_corpus.h"
#include "timing_env.h"
#include "trace.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace perfbench {

using namespace xydiff;

double Samples::Percentile(double p) const {
  if (samples_.empty()) return 0;
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double Samples::TailRank() const {
  const double n = static_cast<double>(samples_.size());
  double best = 0;
  for (double p : {50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
    if (n * (1.0 - p / 100.0) >= 10.0) best = p;
  }
  return best;
}

void Samples::Report(const std::string& prefix, RunResult* result) const {
  result->Detail(prefix + "_p50_ms", Percentile(50), "ms");
  const double tail = TailRank();
  if (tail > 50) {
    char name[32];
    std::snprintf(name, sizeof(name), "_p%g_ms", tail);
    result->Detail(prefix + name, Percentile(tail), "ms");
  }
  result->Detail(prefix + "_samples", static_cast<double>(count()), "count");
}

double ProcessCpuSeconds() {
  timespec now;
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now) != 0) return 0;
  return static_cast<double>(now.tv_sec) + 1e-9 * static_cast<double>(now.tv_nsec);
}

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

namespace {

/// Inverse of the standard normal CDF, by bisection on erfc.
double NormalQuantile(double q) {
  double lo = -10, hi = 10;
  for (int i = 0; i < 100; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (0.5 * std::erfc(-mid / std::sqrt(2.0)) < q) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

}  // namespace

std::vector<XmlDocument> StratifiedWebCorpus(Rng* rng, size_t n) {
  const WebCorpusOptions law;
  std::vector<size_t> sizes(n);
  for (size_t i = 0; i < n; ++i) {
    const double q = (static_cast<double>(i) + 0.5) / static_cast<double>(n);
    const double bytes =
        std::exp(std::log(static_cast<double>(law.median_bytes)) +
                 law.log_sigma * NormalQuantile(q));
    sizes[i] = static_cast<size_t>(
        std::clamp(bytes, static_cast<double>(law.min_bytes),
                   static_cast<double>(law.max_bytes)));
  }
  // Fisher–Yates on the seeded stream: which URL gets which size varies
  // by seed, the size multiset does not.
  for (size_t i = n; i > 1; --i) std::swap(sizes[i - 1], sizes[rng->NextIndex(i)]);
  std::vector<XmlDocument> corpus;
  corpus.reserve(n);
  for (size_t size : sizes) {
    DocGenOptions doc_options;
    doc_options.target_bytes = size;
    corpus.push_back(GenerateDocument(rng, doc_options));
    corpus.back().AssignInitialXids();
  }
  return corpus;
}

Result<std::string> NextVersion(XmlDocument* doc,
                                const ChangeSimOptions& profile, Rng* rng) {
  Result<SimulatedChange> change = SimulateChanges(*doc, profile, rng);
  if (!change.ok()) return change.status();
  *doc = std::move(change->new_version);
  return Text(*doc);
}

std::string Text(const XmlDocument& doc) { return SerializeDocument(doc); }

Warehouse::PipelineOptions Pipeline(const std::string& store, int threads,
                                    Env* env) {
  Warehouse::PipelineOptions pipeline;
  pipeline.threads = threads;
  pipeline.save_directory = store;
  pipeline.env = env;
  return pipeline;
}

void CollectWords(const XmlNode* node, size_t limit,
                  std::vector<std::string>* words) {
  if (node == nullptr || words->size() >= limit) return;
  if (node->is_text()) {
    for (std::string& word : FullTextIndex::Tokenize(node->text())) {
      if (words->size() < limit) words->push_back(std::move(word));
    }
    return;
  }
  for (size_t i = 0; i < node->child_count(); ++i) {
    CollectWords(node->child(i), limit, words);
  }
}

// --- Probe -----------------------------------------------------------------

Result<XmlDocument> Probe::Parse(std::string_view text) {
  const auto start = Clock::now();
  Result<XmlDocument> doc = [&] {
    Scope span(tracer_, "xml.parse");
    ParseOptions options;
    if (reuse_arenas_) {
      options.arena = arenas_.Acquire(std::min(
          std::max(text.size(), Arena::kDefaultFirstBlock), Arena::kMaxBlock));
    }
    return ParseXml(text, options);
  }();
  totals_->parse_s += SecondsBetween(start, Clock::now());
  totals_->parse_bytes += text.size();
  return doc;
}

Result<size_t> Probe::Commit(VersionRepository* repo, XmlDocument doc,
                             XmlDocument* old_version) {
  auto start = Clock::now();
  const Result<int> version = [&] {
    Scope span(tracer_, "repository.commit");
    return repo->Commit(std::move(doc), DiffOptions{}, old_version);
  }();
  totals_->commit_s += SecondsBetween(start, Clock::now());
  if (!version.ok()) return version.status();
  ++totals_->commits;
  const DiffStats& stats = repo->last_commit_stats();
  totals_->diff_s += stats.total_seconds();
  totals_->phase12_s += stats.phase1_seconds + stats.phase2_seconds;
  totals_->phase3_s += stats.phase3_seconds;
  totals_->phase4_s += stats.phase4_seconds;
  totals_->phase5_s += stats.phase5_seconds;
  totals_->nodes += stats.nodes_old + stats.nodes_new;
  totals_->nodes_new += stats.nodes_new;
  totals_->queue_pops += stats.queue_pops;
  totals_->candidates_scanned += stats.candidates_scanned;
  totals_->subtree_matches += stats.subtree_matches;
  totals_->matched_nodes += stats.matched_nodes;

  Result<const Delta*> delta = repo->DeltaFor(*version - 1);
  if (!delta.ok()) return delta.status();

  start = Clock::now();
  size_t xml_bytes = 0;
  {
    Scope span(tracer_, "delta.serialize_xml");
    xml_bytes = SerializeDelta(**delta).size();
  }
  totals_->serialize_xml_s += SecondsBetween(start, Clock::now());
  totals_->xml_delta_bytes += xml_bytes;

  if (alerter_ != nullptr) {
    start = Clock::now();
    {
      Scope span(tracer_, "monitor.alert");
      const DeltaNodeIndex nodes =
          DeltaNodeIndex::Build(**delta, *old_version, repo->current());
      totals_->alerts += alerter_->Evaluate(**delta, nodes).size();
    }
    totals_->alert_s += SecondsBetween(start, Clock::now());
  }
  return xml_bytes;
}

Status Probe::ProbeCommit(const VersionRepository& repo,
                          XmlDocument* old_version) {
  Result<const Delta*> delta = repo.DeltaFor(repo.version_count() - 1);
  if (!delta.ok()) return delta.status();

  auto start = Clock::now();
  std::string binary;
  {
    Scope span(tracer_, "delta.encode");
    binary = EncodeDeltaBinary(**delta);
  }
  totals_->encode_s += SecondsBetween(start, Clock::now());
  totals_->binary_delta_bytes += binary.size();

  start = Clock::now();
  {
    Scope span(tracer_, "delta.decode");
    Result<Delta> decoded = DecodeDeltaBinary(binary);
    if (!decoded.ok()) return decoded.status();
  }
  totals_->decode_s += SecondsBetween(start, Clock::now());

  start = Clock::now();
  {
    Scope span(tracer_, "core.candidate_index_probe");
    LabelTable labels;
    DiffTree tree = DiffTree::Build(old_version, &labels);
    ComputeSignaturesAndWeights(&tree, DiffOptions{});
    CandidateIndex index(&tree);
  }
  totals_->candidate_index_s += SecondsBetween(start, Clock::now());
  return Status::OK();
}

bool Probe::Checkout(const VersionRepository& repo, int version,
                     std::string_view expected) {
  CheckoutStats stats;
  auto start = Clock::now();
  Result<XmlDocument> doc = [&] {
    Scope span(tracer_, "repository.checkout");
    return repo.Checkout(version, &stats);
  }();
  totals_->checkout_s += SecondsBetween(start, Clock::now());
  ++totals_->checkouts;
  totals_->applications += stats.applications;
  bool ok = doc.ok();
  {
    Scope span(tracer_, "bench.verify");
    ok = ok && Text(*doc) == expected;
  }

  // The same version as plain backward replay, one ApplyDeltaInverse per
  // chain delta, from a copy of the current version.
  XmlDocument replay;
  {
    Scope span(tracer_, "bench.clone");
    replay = repo.current().Clone();
  }
  start = Clock::now();
  {
    Scope span(tracer_, "delta.apply");
    for (int v = repo.version_count() - 1; v >= version && ok; --v) {
      ok = ApplyDeltaInverse(repo.deltas()[static_cast<size_t>(v - 1)],
                             &replay)
               .ok();
    }
  }
  totals_->apply_s += SecondsBetween(start, Clock::now());
  {
    Scope span(tracer_, "bench.verify");
    ok = ok && Text(replay) == expected;
  }
  return ok;
}

Status Probe::SaveBatch(const std::vector<RepositorySaveSlot>& slots,
                        const std::string& parent, Env* env) {
  const auto start = Clock::now();
  const Status saved = [&] {
    Scope span(tracer_, "storage.save");
    return SaveRepositoryBatch(slots, parent, env);
  }();
  totals_->save_s += SecondsBetween(start, Clock::now());
  totals_->saved_docs += slots.size();
  return saved;
}

Result<VersionRepository> Probe::Load(const std::string& directory,
                                      Env* env) {
  const auto start = Clock::now();
  Result<VersionRepository> repo = [&] {
    Scope span(tracer_, "storage.load");
    return LoadRepository(directory, env);
  }();
  totals_->load_s += SecondsBetween(start, Clock::now());
  return repo;
}

Status Probe::DecodeChain(const VersionRepository& repo) {
  for (const Delta& delta : repo.deltas()) {
    std::string binary;
    {
      Scope span(tracer_, "bench.encode_input");
      binary = EncodeDeltaBinary(delta);
    }
    const auto start = Clock::now();
    Scope span(tracer_, "delta.decode");
    Result<Delta> decoded = DecodeDeltaBinary(binary);
    totals_->decode_s += SecondsBetween(start, Clock::now());
    if (!decoded.ok()) return decoded.status();
  }
  return Status::OK();
}

// --- Per-layer metrics -------------------------------------------------------

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

void AddLayerMetrics(const LayerTotals& t, const StorageCounters& io,
                     const StorageFigures& storage,
                     const WarehouseFigures& warehouse,
                     const TraceFigures& trace, RunResult* r) {
  const double docs = static_cast<double>(t.saved_docs);

  r->Add("xml.parse_s", t.parse_s, "s");
  r->Add("xml.parse_mb_per_s", Ratio(t.parse_bytes / 1e6, t.parse_s), "MB/s");

  r->Add("core.diff_s", t.diff_s, "s");
  r->Add("core.phase12_s", t.phase12_s, "s");
  r->Add("core.phase3_s", t.phase3_s, "s");
  r->Add("core.phase4_s", t.phase4_s, "s");
  r->Add("core.phase5_s", t.phase5_s, "s");
  r->Add("core.candidate_index_s", t.candidate_index_s, "s");
  r->Add("core.nodes", static_cast<double>(t.nodes), "count");
  r->Add("core.queue_pops", static_cast<double>(t.queue_pops), "count");
  r->Add("core.scan_per_pop",
         Ratio(static_cast<double>(t.candidates_scanned),
               static_cast<double>(t.queue_pops)),
         "ratio");
  r->Add("core.subtree_match_ratio",
         Ratio(static_cast<double>(t.subtree_matches),
               static_cast<double>(t.queue_pops)),
         "ratio");
  r->Add("core.matched_fraction",
         Ratio(static_cast<double>(t.matched_nodes),
               static_cast<double>(t.nodes_new)),
         "ratio");

  r->Add("delta.serialize_xml_s", t.serialize_xml_s, "s");
  r->Add("delta.encode_s", t.encode_s, "s");
  r->Add("delta.decode_s", t.decode_s, "s");
  r->Add("delta.apply_s", t.apply_s, "s");
  r->Add("delta.binary_to_xml_ratio",
         Ratio(static_cast<double>(t.binary_delta_bytes),
               static_cast<double>(t.xml_delta_bytes)),
         "ratio");

  r->Add("repository.commit_self_s", t.commit_s - t.diff_s, "s");
  r->Add("repository.checkout_s", t.checkout_s, "s");
  r->Add("repository.applications_per_checkout",
         Ratio(static_cast<double>(t.applications),
               static_cast<double>(t.checkouts)),
         "count");

  r->Add("storage.save_ms_per_doc", Ratio(t.save_s * 1e3, docs), "ms");
  r->Add("storage.save_growth", storage.save_growth, "ratio");
  r->Add("storage.syncs_per_doc",
         Ratio(static_cast<double>(io.sync_files + io.sync_dirs), docs),
         "count");
  r->Add("storage.env_ops_per_doc", Ratio(static_cast<double>(io.ops), docs),
         "count");
  r->Add("storage.write_bytes_per_input_byte",
         Ratio(static_cast<double>(io.bytes_written), storage.input_bytes),
         "ratio");
  r->Add("storage.sync_s", io.sync_seconds, "s");
  r->Add("storage.load_s", t.load_s, "s");
  r->Add("storage.unpersisted_first_versions",
         storage.unpersisted_first_versions, "count");

  r->Add("warehouse.scaling_2t", warehouse.scaling_2t, "ratio");
  r->Add("warehouse.stall_s", warehouse.stall_s, "s");
  r->Add("warehouse.peak_in_flight", warehouse.peak_in_flight, "count");

  r->Add("monitor.alert_s", t.alert_s, "s");
  r->Add("monitor.alerts", static_cast<double>(t.alerts), "count");
  r->Add("monitor.index_build_s", t.index_build_s, "s");
  r->Add("monitor.lookup_s", t.lookup_s, "s");

  r->Add("trace.overhead_s", trace.overhead_s, "s");
  r->Add("trace.unattributed_s", trace.unattributed_s, "s");

  // Counted and timed by the timing Env too, printed on the detail line.
  r->Detail("storage.renames_per_doc",
            Ratio(static_cast<double>(io.renames), docs), "count");
  r->Detail("storage.env_s", io.seconds, "s");
  r->Detail("trace.wall_s", trace.wall_s, "s");
  // Not a per-layer metric: on crawl the replayed steps run slower than
  // the same steps inside a 1-worker DiffBatch, so it comes out negative.
  r->Detail("warehouse.self_s", warehouse.self_s, "s");
}

void AddAgreement(double prefix, uint64_t delta_bytes, uint64_t new_bytes,
                  uint64_t alerts, uint64_t failed, RunResult* r) {
  r->Detail("agree.prefix", prefix, "count");
  r->Detail("agree.delta_bytes", static_cast<double>(delta_bytes), "B");
  r->Detail("agree.new_bytes", static_cast<double>(new_bytes), "B");
  r->Detail("agree.delta_ratio",
            Ratio(static_cast<double>(delta_bytes),
                  static_cast<double>(new_bytes)),
            "ratio");
  r->Detail("agree.alerts", static_cast<double>(alerts), "count");
  r->Detail("agree.failed", static_cast<double>(failed), "count");
}

}  // namespace perfbench
