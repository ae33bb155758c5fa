// The DiffBatch pipeline (each worker takes a slot through parse → diff
// → store over the work-stealing pool) must be a *refinement* of the
// sequential ingest path: same results, same stored versions,
// independent of scheduling. These tests drive real batches through the
// pipeline under every configuration the scheduler can reach — more
// threads than documents, duplicate URLs, malformed members — and pin
// the outputs to the single-threaded run (and to plain Ingest) byte for
// byte. Run them under ASan/UBSan (XYDIFF_SANITIZE) and TSan
// (XYDIFF_TSAN, tools/run_tsan_tests.sh) to make the scheduling space
// itself part of the test.

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "simulator/change_simulator.h"
#include "simulator/doc_generator.h"
#include "tests/test_util.h"
#include "util/random.h"
#include "version/warehouse.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xydiff {
namespace {

struct Corpus {
  std::vector<Warehouse::DiffJob> week1;
  std::vector<Warehouse::DiffJob> week2;
};

/// Deterministic corpus of `count` documents with a simulated weekly
/// change applied to each. Small documents: the point is many
/// scheduling interleavings, not diff work.
Corpus MakeCorpus(size_t count, uint64_t seed) {
  Rng rng(seed);
  DocGenOptions gen;
  gen.target_bytes = 600;
  ChangeSimOptions sim;  // Paper defaults: 10% per operation.
  Corpus corpus;
  corpus.week1.reserve(count);
  corpus.week2.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    XmlDocument base = GenerateDocument(&rng, gen);
    base.AssignInitialXids();
    Result<SimulatedChange> change = SimulateChanges(base, sim, &rng);
    EXPECT_TRUE(change.ok()) << change.status().ToString();
    const std::string url = "doc" + std::to_string(i);
    corpus.week1.push_back({url, SerializeDocument(base)});
    corpus.week2.push_back(
        {url, SerializeDocument(change.ok() ? change->new_version : base)});
  }
  return corpus;
}

/// Everything observable about one document after a batch, keyed by URL:
/// the ingest report fields plus the canonical XID-carrying serialization
/// of every stored version. Two runs are "the same" iff these maps are
/// equal — the serialization includes XIDs, so even identifier assignment
/// must not depend on scheduling.
struct DocumentOutcome {
  int version = 0;
  size_t operations = 0;
  size_t delta_bytes = 0;
  std::vector<std::string> versions_with_xids;

  bool operator==(const DocumentOutcome& other) const {
    return version == other.version && operations == other.operations &&
           delta_bytes == other.delta_bytes &&
           versions_with_xids == other.versions_with_xids;
  }
};

std::map<std::string, DocumentOutcome> Observe(
    const Warehouse& warehouse,
    const std::vector<Result<Warehouse::IngestReport>>& reports) {
  std::map<std::string, DocumentOutcome> outcomes;
  SerializeOptions with_xids;
  with_xids.emit_xids = true;
  for (const auto& report : reports) {
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    if (!report.ok()) continue;
    DocumentOutcome& outcome = outcomes[report->url];
    outcome.version = report->version;
    outcome.operations = report->operations;
    outcome.delta_bytes = report->delta_bytes;
    for (int v = 1; v <= report->version; ++v) {
      Result<XmlDocument> doc = warehouse.Checkout(report->url, v);
      EXPECT_TRUE(doc.ok()) << report->url << " v" << v << ": "
                            << doc.status().ToString();
      outcome.versions_with_xids.push_back(
          doc.ok() ? SerializeDocument(*doc, with_xids) : std::string());
    }
  }
  return outcomes;
}

/// Runs both weeks through DiffBatch with the given tuning and returns
/// the full observable outcome.
std::map<std::string, DocumentOutcome> RunPipeline(
    const Corpus& corpus, const Warehouse::PipelineOptions& pipeline,
    PipelineStats* stats = nullptr) {
  Warehouse warehouse;
  XY_EXPECT_OK(warehouse.Subscribe("items", "//item"));
  auto week1_reports = warehouse.DiffBatch(corpus.week1, pipeline);
  for (const auto& r : week1_reports) {
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (r.ok()) {
      EXPECT_TRUE(r->first_version);
    }
  }
  auto week2_reports = warehouse.DiffBatch(corpus.week2, pipeline, stats);
  return Observe(warehouse, week2_reports);
}

// The headline scenario from the issue: 8 threads, 200 documents.
// Scheduling freedom is maximal (on a multicore box workers genuinely
// race; under TSan every access is checked), yet the outcome must be
// byte-identical to the 1-thread run — XIDs included.
TEST(ParallelPipelineTest, EightThreadsTwoHundredDocsMatchSingleThread) {
  Corpus corpus = MakeCorpus(200, 8200);

  Warehouse::PipelineOptions sequential;
  sequential.threads = 1;
  std::map<std::string, DocumentOutcome> expected =
      RunPipeline(corpus, sequential);
  ASSERT_EQ(expected.size(), 200u);

  Warehouse::PipelineOptions parallel;
  parallel.threads = 8;
  PipelineStats stats;
  std::map<std::string, DocumentOutcome> actual =
      RunPipeline(corpus, parallel, &stats);

  ASSERT_EQ(actual.size(), expected.size());
  for (const auto& [url, outcome] : expected) {
    auto it = actual.find(url);
    ASSERT_NE(it, actual.end()) << url;
    EXPECT_TRUE(it->second == outcome)
        << url << ": parallel outcome differs from sequential"
        << " (v" << it->second.version << " vs v" << outcome.version
        << ", ops " << it->second.operations << " vs " << outcome.operations
        << ")";
  }

  // Stage accounting: every document passed every stage exactly once.
  ASSERT_EQ(stats.stages.size(), 3u);
  for (const StageStats& stage : stats.stages) {
    EXPECT_EQ(stage.items, 200u) << stage.name;
    EXPECT_EQ(stage.failed, 0u) << stage.name;
  }
  // The memory ceiling: each worker holds one slot, and at most one
  // group of finished slots waits for its commit.
  EXPECT_GE(stats.peak_in_flight, 1u);
  EXPECT_LE(stats.peak_in_flight,
            static_cast<size_t>(parallel.threads) +
                parallel.group_commit_slots);
  EXPECT_GT(stats.wall_seconds, 0.0);
}

// Determinism across thread counts that divide, exceed, and
// oversubscribe the batch.
TEST(ParallelPipelineTest, OutcomeIndependentOfThreadCount) {
  Corpus corpus = MakeCorpus(48, 4242);
  Warehouse::PipelineOptions reference;
  reference.threads = 1;
  std::map<std::string, DocumentOutcome> expected =
      RunPipeline(corpus, reference);

  for (int threads : {2, 3, 8, 64}) {
    Warehouse::PipelineOptions pipeline;
    pipeline.threads = threads;
    std::map<std::string, DocumentOutcome> actual =
        RunPipeline(corpus, pipeline);
    EXPECT_TRUE(actual == expected) << "threads=" << threads;
  }
}

// A malformed document fails its own slot and nothing else; the batch
// runs to completion and the failure names the culprit.
TEST(ParallelPipelineTest, MalformedDocumentFailsOnlyItsSlot) {
  Corpus corpus = MakeCorpus(24, 7);
  std::vector<Warehouse::DiffJob> week2 = corpus.week2;
  week2[5].xml = "<broken><unclosed>";
  week2[17].xml = "not xml at all";

  Warehouse warehouse;
  Warehouse::PipelineOptions pipeline;
  pipeline.threads = 8;
  for (const auto& r : warehouse.DiffBatch(corpus.week1, pipeline)) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  auto reports = warehouse.DiffBatch(week2, pipeline);
  ASSERT_EQ(reports.size(), week2.size());
  for (size_t i = 0; i < reports.size(); ++i) {
    if (i == 5 || i == 17) {
      EXPECT_FALSE(reports[i].ok()) << "slot " << i;
      EXPECT_NE(reports[i].status().ToString().find(week2[i].url),
                std::string::npos)
          << "error should name the failing URL: "
          << reports[i].status().ToString();
    } else {
      EXPECT_TRUE(reports[i].ok()) << "slot " << i << ": "
                                   << reports[i].status().ToString();
    }
  }
  // The failed documents stay at version 1; their neighbours advanced.
  EXPECT_EQ(warehouse.version_count("doc5"), 1);
  EXPECT_EQ(warehouse.version_count("doc17"), 1);
  EXPECT_EQ(warehouse.version_count("doc6"), 2);
}

// Duplicate URLs in one batch are rejected up front (the pipeline would
// otherwise race two ingests of the same document non-deterministically).
TEST(ParallelPipelineTest, DuplicateUrlsInOneBatchAreRejected) {
  Corpus corpus = MakeCorpus(4, 11);
  std::vector<Warehouse::DiffJob> batch = corpus.week1;
  batch.push_back(batch[1]);  // Same URL twice.

  Warehouse warehouse;
  Warehouse::PipelineOptions pipeline;
  pipeline.threads = 4;
  auto reports = warehouse.DiffBatch(batch, pipeline);
  ASSERT_EQ(reports.size(), 5u);
  EXPECT_FALSE(reports[4].ok());
  // The first occurrence still ingests normally.
  EXPECT_TRUE(reports[1].ok()) << reports[1].status().ToString();
}

// Reports preserve input order even though completion order is
// scheduler-dependent.
TEST(ParallelPipelineTest, ReportsComeBackInInputOrder) {
  Corpus corpus = MakeCorpus(32, 99);
  Warehouse warehouse;
  Warehouse::PipelineOptions pipeline;
  pipeline.threads = 8;
  auto reports = warehouse.DiffBatch(corpus.week1, pipeline);
  ASSERT_EQ(reports.size(), corpus.week1.size());
  for (size_t i = 0; i < reports.size(); ++i) {
    ASSERT_TRUE(reports[i].ok()) << reports[i].status().ToString();
    EXPECT_EQ(reports[i]->url, corpus.week1[i].url) << "slot " << i;
  }
}

// An empty batch is a no-op, not a hang (the worker loop's exit
// condition must not wait for items that never come).
TEST(ParallelPipelineTest, EmptyBatchCompletes) {
  Warehouse warehouse;
  Warehouse::PipelineOptions pipeline;
  pipeline.threads = 8;
  PipelineStats stats;
  auto reports = warehouse.DiffBatch({}, pipeline, &stats);
  EXPECT_TRUE(reports.empty());
  for (const StageStats& stage : stats.stages) {
    EXPECT_EQ(stage.items, 0u);
  }
}

// Mixed old and new URLs in one batch: first sights store version 1,
// known URLs diff — concurrently, in the same pipeline run.
TEST(ParallelPipelineTest, MixedFirstAndRepeatSightsInOneBatch) {
  Corpus corpus = MakeCorpus(16, 1234);
  Warehouse warehouse;
  Warehouse::PipelineOptions pipeline;
  pipeline.threads = 4;
  // Pre-ingest the even URLs only.
  std::vector<Warehouse::DiffJob> first;
  for (size_t i = 0; i < corpus.week1.size(); i += 2) {
    first.push_back(corpus.week1[i]);
  }
  for (const auto& r : warehouse.DiffBatch(first, pipeline)) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  // Now feed week2 for everyone: evens diff to v2, odds appear as v1.
  auto reports = warehouse.DiffBatch(corpus.week2, pipeline);
  ASSERT_EQ(reports.size(), corpus.week2.size());
  for (size_t i = 0; i < reports.size(); ++i) {
    ASSERT_TRUE(reports[i].ok()) << reports[i].status().ToString();
    if (i % 2 == 0) {
      EXPECT_EQ(reports[i]->version, 2) << "slot " << i;
      EXPECT_FALSE(reports[i]->first_version);
    } else {
      EXPECT_EQ(reports[i]->version, 1) << "slot " << i;
      EXPECT_TRUE(reports[i]->first_version);
    }
  }
}

// Subscriptions fire identically through the parallel path: alerts are
// evaluated under the per-document lock, so a matching change in any
// document yields its alert regardless of which worker ingested it.
TEST(ParallelPipelineTest, AlertsFireThroughThePipeline) {
  Warehouse warehouse;
  XY_ASSERT_OK(warehouse.Subscribe("price-watch", "//price"));
  Warehouse::PipelineOptions pipeline;
  pipeline.threads = 4;

  std::vector<Warehouse::DiffJob> week1;
  std::vector<Warehouse::DiffJob> week2;
  for (int i = 0; i < 8; ++i) {
    const std::string url = "shop" + std::to_string(i);
    week1.push_back({url, "<catalog><price>10</price></catalog>"});
    week2.push_back(
        {url, "<catalog><price>" + std::to_string(11 + i) + "</price>"
              "</catalog>"});
  }
  for (const auto& r : warehouse.DiffBatch(week1, pipeline)) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  auto reports = warehouse.DiffBatch(week2, pipeline);
  for (const auto& r : reports) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_FALSE(r->alerts.empty())
        << r->url << ": price change should trigger the subscription";
  }
}

// Arena recycling is an allocator change, never a semantic one:
// DiffBatch, which parses every slot into a pooled arena, must store the
// same versions — XIDs included — with the same operation counts as
// plain Ingest of documents parsed into fresh arenas. Run under the ASan
// preset, this is also the aliasing check: a recycled arena that still
// carried another slot's live bytes would trip use-after-poison.
TEST(ParallelPipelineTest, PooledArenasMatchFreshArenasByteForByte) {
  Corpus corpus = MakeCorpus(60, 4600);

  Warehouse fresh;
  XY_ASSERT_OK(fresh.Subscribe("items", "//item"));
  for (const Warehouse::DiffJob& job : corpus.week1) {
    Result<XmlDocument> doc = ParseXml(job.xml);
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    XY_ASSERT_OK(fresh.Ingest(job.url, std::move(*doc)).status());
  }
  std::vector<Result<Warehouse::IngestReport>> fresh_reports;
  for (const Warehouse::DiffJob& job : corpus.week2) {
    Result<XmlDocument> doc = ParseXml(job.xml);
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    fresh_reports.push_back(fresh.Ingest(job.url, std::move(*doc)));
  }
  std::map<std::string, DocumentOutcome> expected =
      Observe(fresh, fresh_reports);
  ASSERT_EQ(expected.size(), 60u);

  Warehouse::PipelineOptions pooled;
  pooled.threads = 4;
  std::map<std::string, DocumentOutcome> actual = RunPipeline(corpus, pooled);
  ASSERT_EQ(actual.size(), expected.size());
  for (auto& [url, outcome] : actual) {
    // Only DiffBatch reports the serialized delta size.
    EXPECT_GT(outcome.delta_bytes, 0u) << url;
    outcome.delta_bytes = 0;
  }
  EXPECT_TRUE(expected == actual)
      << "arena recycling changed an observable outcome";
}

// DiffBatch defers monitor maintenance; that must change WHEN the index
// is built, never what it answers: a Search after DiffBatch (lazy
// rebuild) must equal a Search after IngestBatch (inline index
// maintenance), and the stored versions must be untouched by the policy.
TEST(ParallelPipelineTest, DeferredMonitorsAnswerSearchesIdentically) {
  Corpus corpus = MakeCorpus(30, 3000);

  Warehouse inline_wh;
  for (const auto* week : {&corpus.week1, &corpus.week2}) {
    std::vector<std::pair<std::string, XmlDocument>> batch;
    for (const Warehouse::DiffJob& job : *week) {
      Result<XmlDocument> doc = ParseXml(job.xml);
      ASSERT_TRUE(doc.ok()) << doc.status().ToString();
      batch.emplace_back(job.url, std::move(*doc));
    }
    for (const auto& r : inline_wh.IngestBatch(std::move(batch), 2)) {
      EXPECT_TRUE(r.ok()) << r.status().ToString();
    }
  }

  Warehouse deferred_wh;
  Warehouse::PipelineOptions pipeline;
  pipeline.threads = 2;
  for (const auto* week : {&corpus.week1, &corpus.week2}) {
    for (const auto& r : deferred_wh.DiffBatch(*week, pipeline)) {
      EXPECT_TRUE(r.ok()) << r.status().ToString();
    }
  }

  // Probe with words that appear in generated documents plus one miss.
  for (const char* word : {"the", "item", "price", "zzz-not-a-word"}) {
    EXPECT_EQ(inline_wh.Search(word), deferred_wh.Search(word))
        << "Search(\"" << word << "\") diverged";
  }
  for (const Warehouse::DiffJob& job : corpus.week2) {
    for (int v = 1; v <= 2; ++v) {
      Result<XmlDocument> a = inline_wh.Checkout(job.url, v);
      Result<XmlDocument> b = deferred_wh.Checkout(job.url, v);
      ASSERT_TRUE(a.ok() && b.ok()) << job.url << " v" << v;
      SerializeOptions with_xids;
      with_xids.emit_xids = true;
      EXPECT_EQ(SerializeDocument(*a, with_xids),
                SerializeDocument(*b, with_xids))
          << job.url << " v" << v;
    }
  }
  // A later inline ingest over a stale index must rebuild, not corrupt:
  // re-ingest week2 via Ingest (inline monitors) on the deferred
  // warehouse and re-check.
  for (const auto& job : corpus.week2) {
    Result<XmlDocument> doc = ParseXml(job.xml);
    ASSERT_TRUE(doc.ok());
    auto report = deferred_wh.Ingest(job.url, std::move(*doc));
    ASSERT_TRUE(report.ok()) << report.status().ToString();
  }
  for (const char* word : {"the", "item", "price"}) {
    // An identical re-ingest is a no-op delta: the rebuilt-then-applied
    // index must still answer exactly like the always-inline warehouse.
    EXPECT_EQ(deferred_wh.Search(word), inline_wh.Search(word)) << word;
  }
}

}  // namespace
}  // namespace xydiff
