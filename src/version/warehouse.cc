#include "version/warehouse.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string_view>
#include <unordered_set>

#include "delta/delta_xml.h"
#include "delta/node_index.h"
#include "util/retry.h"
#include "util/string_util.h"
#include "version/storage.h"
#include "xml/parser.h"

namespace xydiff {

namespace {

/// The store stage's retry policy, derived from the pipeline knobs.
/// The jitter seed mixes in a per-call salt so concurrent flush groups
/// retrying the same transient fault desynchronize deterministically.
RetryPolicy StoreRetryPolicy(int max_retries, int backoff_ms, uint64_t salt) {
  RetryPolicy policy;
  policy.max_retries = max_retries;
  policy.backoff_ms = backoff_ms;
  policy.jitter_seed = 0x5EEDF00DULL ^ salt;
  return policy;
}

/// Result slots for a batch in input order. Every slot starts as
/// `never_ran`, except a URL already seen earlier in the batch, which is
/// pre-flagged kInvalidArgument: two ingests of one document in one
/// batch would race non-deterministically. `url_of` projects an item to
/// its URL.
template <typename Item, typename UrlOf>
std::vector<Result<Warehouse::IngestReport>> ResultSlots(
    const std::vector<Item>& batch, UrlOf url_of, const char* never_ran) {
  std::vector<Result<Warehouse::IngestReport>> results;
  results.reserve(batch.size());
  std::unordered_set<std::string_view> seen;
  seen.reserve(batch.size());
  for (const Item& item : batch) {
    const std::string& url = std::invoke(url_of, item);
    if (seen.insert(url).second) {
      results.emplace_back(Status::Corruption(never_ran));
    } else {
      results.emplace_back(
          Status::InvalidArgument("duplicate URL in batch: " + url));
    }
  }
  return results;
}

/// True for a slot ResultSlots pre-flagged as a duplicate URL; workers
/// skip it. No other status is set before a worker claims the slot.
bool IsDuplicateSlot(const Result<Warehouse::IngestReport>& slot) {
  return !slot.ok() && slot.status().code() == StatusCode::kInvalidArgument;
}

}  // namespace

Status Warehouse::Subscribe(std::string id, std::string_view path_expression,
                            std::optional<ChangeKind> kind,
                            std::string detail_contains) {
  WriterMutexLock lock(alerter_mutex_);
  return alerter_.Subscribe(std::move(id), path_expression, kind,
                            std::move(detail_contains));
}

Warehouse::Shard& Warehouse::ShardFor(const std::string& url) const {
  return shards_[std::hash<std::string>{}(url) % kShards];
}

Warehouse::Document* Warehouse::FindDocument(const std::string& url) const {
  Shard& shard = ShardFor(url);
  MutexLock lock(shard.mutex);
  auto it = shard.documents.find(url);
  return it == shard.documents.end() ? nullptr : it->second.get();
}

Warehouse::Document* Warehouse::FindOrCreateDocument(const std::string& url,
                                                     bool* created) {
  Shard& shard = ShardFor(url);
  MutexLock lock(shard.mutex);
  auto it = shard.documents.find(url);
  if (it != shard.documents.end()) {
    *created = false;
    return it->second.get();
  }
  auto slot = std::make_unique<Document>();
  Document* doc = slot.get();
  shard.documents.emplace(url, std::move(slot));
  *created = true;
  return doc;
}

std::vector<std::pair<std::string, Warehouse::Document*>>
Warehouse::SnapshotSlots() const {
  std::vector<std::pair<std::string, Document*>> slots;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mutex);
    for (const auto& [url, doc] : shard.documents) {
      slots.emplace_back(url, doc.get());
    }
  }
  std::sort(slots.begin(), slots.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return slots;
}

Result<Warehouse::IngestReport> Warehouse::Ingest(const std::string& url,
                                                  XmlDocument document) {
  if (degraded_.load(std::memory_order_acquire)) {
    return Status::Unavailable(
        "warehouse degraded (persistent store IOError): ingest rejected, "
        "reads still served: " + url);
  }
  return IngestInternal(url, std::move(document), /*defer_monitors=*/false);
}

Result<Warehouse::IngestReport> Warehouse::IngestInternal(
    const std::string& url, XmlDocument document, bool defer_monitors,
    const Context* context) {
  if (document.root() == nullptr) {
    return Status::InvalidArgument("cannot ingest an empty document: " + url);
  }
  IngestReport report;
  report.url = url;

  // Find or create the per-document slot (map shape under the shard
  // lock; per-document work under the document lock).
  bool created = false;
  Document* doc = FindOrCreateDocument(url, &created);

  MutexLock doc_lock(doc->mutex);
  if (created || doc->repo == nullptr) {
    doc->repo = std::make_unique<VersionRepository>(std::move(document));
    if (defer_monitors) {
      doc->index_dirty = true;
    } else {
      doc->index = FullTextIndex::Build(doc->repo->current());
      doc->index_dirty = false;
    }
    report.version = 1;
    report.first_version = true;
    return report;
  }

  // Commit hands back the superseded version instead of us deep-cloning
  // it up front — the diff reads the old tree but never mutates it.
  // The batch context rides into the diff through its options, so the
  // BULD matching loop observes the deadline cooperatively; on a
  // context error Commit leaves the repository untouched (the delta is
  // never appended).
  DiffOptions diff_options = options_;
  diff_options.context = context;
  XmlDocument old_version;
  Result<int> version =
      doc->repo->Commit(std::move(document), diff_options, &old_version);
  if (!version.ok()) return version.status();
  report.version = *version;

  Result<const Delta*> delta = doc->repo->DeltaFor(*version - 1);
  if (!delta.ok()) return delta.status();
  report.operations = (*delta)->operation_count();

  // Alerts are never deferred; with no subscriptions a deferred ingest
  // is done here — index marked stale, statistics skipped (derived
  // state, the contract Load() already has).
  bool evaluate_alerts = true;
  if (defer_monitors) {
    ReaderMutexLock lock(alerter_mutex_);
    evaluate_alerts = alerter_.subscription_count() > 0;
    if (!evaluate_alerts) {
      doc->index_dirty = true;
      return report;
    }
  }

  // Resolve the delta's nodes once; index, alerter, and statistics all
  // consume the same DeltaNodeIndex instead of each rebuilding an O(n)
  // XID map over both versions.
  const DeltaNodeIndex nodes =
      DeltaNodeIndex::Build(**delta, old_version, doc->repo->current());

  if (defer_monitors) {
    doc->index_dirty = true;
  } else if (doc->index_dirty) {
    // A previous deferred batch left the index stale; incremental Apply
    // would corrupt it. Rebuild from the (post-commit) current version.
    doc->index = FullTextIndex::Build(doc->repo->current());
    doc->index_dirty = false;
  } else {
    XYDIFF_RETURN_IF_ERROR(doc->index.Apply(**delta, nodes));
  }

  // Subscription evaluation: read-only on the alerter, so concurrent
  // ingests share the lock.
  if (evaluate_alerts) {
    ReaderMutexLock lock(alerter_mutex_);
    report.alerts = alerter_.Evaluate(**delta, nodes);
  }
  if (!defer_monitors) {
    // Statistics: heavy work in a local collector, cheap merge under
    // lock.
    ChangeStatistics local;
    local.Accumulate(**delta, doc->repo->current(), nodes);
    {
      MutexLock lock(stats_mutex_);
      stats_.Merge(local);
    }
  }
  return report;
}

std::vector<Result<Warehouse::IngestReport>> Warehouse::IngestBatch(
    std::vector<std::pair<std::string, XmlDocument>> batch, int threads) {
  std::vector<Result<IngestReport>> results = ResultSlots(
      batch, &std::pair<std::string, XmlDocument>::first, "ingest never ran");
  const int worker_count =
      std::max(1, std::min<int>(threads, static_cast<int>(batch.size())));
  ThreadPool pool(worker_count);
  for (size_t i = 0; i < batch.size(); ++i) {
    if (IsDuplicateSlot(results[i])) continue;
    pool.Submit([this, i, &batch, &results] {
      results[i] = Ingest(batch[i].first, std::move(batch[i].second));
    });
  }
  pool.Wait();
  return results;
}

std::vector<Result<Warehouse::IngestReport>> Warehouse::DiffBatch(
    std::vector<DiffJob> jobs, const PipelineOptions& pipeline,
    PipelineStats* stats) {
  const auto batch_start = std::chrono::steady_clock::now();
  std::vector<Result<IngestReport>> results =
      ResultSlots(jobs, &DiffJob::url, "pipeline never ran");

  std::atomic<size_t> next_job{0}, admitted_bytes{0};
  std::atomic<size_t> in_flight{0}, peak_in_flight{0}, degraded_slots{0};
  std::atomic<size_t> parse_items{0}, parse_failed{0}, diff_failed{0};
  std::atomic<size_t> store_items{0}, store_failed{0}, store_retries{0};
  // Overload accounting: slots declined or abandoned, by cause.
  std::atomic<size_t> shed_count{0}, quarantined_count{0};
  std::atomic<size_t> deadline_count{0}, cancelled_count{0};
  std::atomic<bool> batch_failed{false};
  // Flush-group ordinal, salting the retry jitter stream per group.
  std::atomic<uint64_t> flush_ordinal{0};

  const auto count_context_error = [&](const Status& status) {
    ++(status.code() == StatusCode::kCancelled ? cancelled_count
                                               : deadline_count);
  };

  // Group commit: finished slots park here until a full group (or the
  // batch tail) flushes them through ONE SaveRepositoryBatch.
  Mutex group_mutex;
  std::vector<size_t> parked_slots;

  // Persists one flushed group. Annotation opt-out: the per-document
  // locks are taken in a loop (URL order), which the static analysis
  // cannot follow. The order is deadlock-free — group flushers agree on
  // it, and every other path holds at most one document lock at a time.
  const auto flush_group = [&](std::vector<size_t> group)
      XY_NO_THREAD_SAFETY_ANALYSIS {
    if (group.empty()) return;
    std::sort(group.begin(), group.end(), [&](size_t a, size_t b) {
      return results[a]->url < results[b]->url;
    });
    // Resolve every document BEFORE taking the first lock: FindDocument
    // takes a shard mutex, and shard -> document is the order everywhere.
    std::vector<Document*> docs(group.size(), nullptr);
    for (size_t g = 0; g < group.size(); ++g) {
      docs[g] = FindDocument(results[group[g]]->url);
    }
    std::vector<RepositorySaveSlot> slots;
    for (size_t g = 0; g < group.size(); ++g) {
      if (docs[g] == nullptr) continue;
      docs[g]->mutex.lock();
      if (docs[g]->repo != nullptr) {
        slots.push_back(RepositorySaveSlot{
            docs[g]->repo.get(), SanitizeUrl(results[group[g]]->url)});
      }
    }
    size_t group_retries = 0;
    // Jittered, deadline-aware retry. SaveRepositoryBatch checks the
    // context too, never past its journal write: all-or-nothing on disk.
    const Status saved = RetryTransient(
        StoreRetryPolicy(pipeline.max_io_retries, pipeline.retry_backoff_ms,
                         flush_ordinal.fetch_add(1)),
        pipeline.context,
        [&] {
          return SaveRepositoryBatch(slots, pipeline.save_directory,
                                     pipeline.env, pipeline.context);
        },
        &group_retries);
    for (size_t g = group.size(); g > 0; --g) {
      if (docs[g - 1] != nullptr) docs[g - 1]->mutex.unlock();
    }
    RecordStoreHealth(saved, pipeline);
    // The in-memory ingests stand, only persistence was cut short: count
    // it once per group, so the overload report shows why disk is behind.
    if (!saved.ok() && IsContextError(saved.code())) count_context_error(saved);
    // The commit is shared, so its cost and its outcome are attributed
    // to every slot in the group: all-or-nothing on disk.
    store_retries += group_retries;
    for (size_t index : group) {
      IngestReport& report = *results[index];
      report.store_retries += group_retries;
      if (!saved.ok()) {
        report.store_degraded = true;
        ++store_failed;
      }
      if (group_retries > 0 || report.store_degraded) ++degraded_slots;
      --in_flight;
    }
  };

  // Admission control (DESIGN.md §3.17), checked when a worker claims a
  // slot and before it spends any work on it: OK admits, anything else
  // is the rejected slot's final status.
  const auto admission = [&](size_t i) -> Status {
    if (pipeline.fail_fast && batch_failed.load()) {
      // Not a failure of this slot's own making: Aborted, so callers can
      // tell "skipped by fail-fast" from real errors.
      return Status::Aborted(
          "slot skipped: fail-fast after an earlier slot failed");
    }
    if (degraded_.load(std::memory_order_acquire)) {
      ++quarantined_count;
      return Status::Unavailable(
          "warehouse degraded (persistent store IOError): slot rejected, "
          "reads still served: " + jobs[i].url);
    }
    if (pipeline.context != nullptr) {
      // Never admitted, so the breaker does not count it against the URL.
      Status live = pipeline.context->Check();
      if (!live.ok()) {
        count_context_error(live);
        return live;
      }
    }
    if (!BreakerAdmits(jobs[i].url, pipeline)) {
      ++quarantined_count;
      return Status::Unavailable(
          "quarantined by circuit breaker after repeated failures: " +
          jobs[i].url);
    }
    const size_t slot_bytes = jobs[i].xml.size();
    if (pipeline.max_document_bytes != 0 &&
        slot_bytes > pipeline.max_document_bytes) {
      ++shed_count;
      return Status::ResourceExhausted(
          "document exceeds max_document_bytes, shed: " + jobs[i].url);
    }
    if (pipeline.max_batch_bytes != 0 &&
        admitted_bytes.fetch_add(slot_bytes) + slot_bytes >
            pipeline.max_batch_bytes) {
      // Give the reservation back so a smaller later slot may fit.
      admitted_bytes -= slot_bytes;
      ++shed_count;
      return Status::ResourceExhausted(
          "batch byte budget exhausted, slot shed: " + jobs[i].url);
    }
    return Status::OK();
  };

  // One admitted slot: parse into a pooled arena, diff and append with
  // deferred monitors, account the delta, park for the group commit.
  // Returns true when parked: the group flush then finishes the slot.
  const auto run_slot = [&](size_t i) -> bool {
    ++parse_items;
    ParseOptions parse_options;
    // A recycled arena keeps its largest block, so steady-state slots
    // parse without touching malloc for node storage at all.
    parse_options.arena = arena_pool_.Acquire(
        std::min(std::max(jobs[i].xml.size(), Arena::kDefaultFirstBlock),
                 Arena::kMaxBlock));
    Result<XmlDocument> doc = ParseXml(jobs[i].xml, parse_options);
    if (!doc.ok()) {
      ++parse_failed;
      batch_failed.store(true);
      RecordBreakerOutcome(jobs[i].url, /*success=*/false, pipeline);
      results[i] = Status::ParseError("cannot parse " + jobs[i].url + ": " +
                                      doc.status().message());
      return false;
    }

    // A parse that outlived the deadline does not start a doomed diff.
    const Status live =
        pipeline.context != nullptr ? pipeline.context->Check() : Status();
    results[i] = live.ok() ? IngestInternal(jobs[i].url, std::move(*doc),
                                            /*defer_monitors=*/true,
                                            pipeline.context)
                           : Result<IngestReport>(live);
    if (!results[i].ok()) {
      ++diff_failed;
      // Every failure counts against the URL's breaker; only those that
      // are not a deadline or cancellation also arm fail-fast.
      const Status& status = results[i].status();
      if (IsContextError(status.code())) {
        count_context_error(status);
      } else {
        batch_failed.store(true);
      }
      RecordBreakerOutcome(jobs[i].url, /*success=*/false, pipeline);
      return false;
    }
    RecordBreakerOutcome(jobs[i].url, /*success=*/true, pipeline);
    if (results[i]->first_version) return false;  // No delta to store.

    ++store_items;
    if (Document* stored = FindDocument(jobs[i].url)) {
      // The repository exists: this slot's ingest just committed to it.
      MutexLock doc_lock(stored->mutex);
      IngestReport& report = *results[i];
      Result<const Delta*> delta = stored->repo->DeltaFor(report.version - 1);
      if (delta.ok()) report.delta_bytes = SerializeDelta(**delta).size();
    }
    if (pipeline.save_directory.empty()) return false;
    std::vector<size_t> full;
    {
      MutexLock lock(group_mutex);
      parked_slots.push_back(i);
      if (parked_slots.size() >= pipeline.group_commit_slots) {
        full.swap(parked_slots);
      }
    }
    flush_group(std::move(full));
    return true;
  };

  const int worker_count = std::clamp(
      pipeline.threads, 1, static_cast<int>(std::max<size_t>(1, jobs.size())));
  {
    ThreadPool pool(worker_count);
    for (int t = 0; t < worker_count; ++t) {
      pool.Submit([&] {
        for (size_t i = next_job++; i < jobs.size(); i = next_job++) {
          if (IsDuplicateSlot(results[i])) continue;
          Status admitted = admission(i);
          if (!admitted.ok()) {
            results[i] = std::move(admitted);
            continue;
          }
          UpdateAtomicMax(peak_in_flight, ++in_flight);
          if (!run_slot(i)) --in_flight;
        }
      });
    }
    pool.Wait();
  }
  // Every worker has returned; flush the one under-full group left.
  flush_group(std::move(parked_slots));

  if (stats != nullptr) {
    // Every parsed slot goes on to the diff.
    *stats = PipelineStats{
        .stages = {{.name = "parse", .items = parse_items,
                    .failed = parse_failed},
                   {.name = "diff", .items = parse_items - parse_failed,
                    .failed = diff_failed},
                   {.name = "store", .items = store_items,
                    .failed = store_failed, .retries = store_retries}},
        .peak_in_flight = peak_in_flight,
        .degraded_slots = degraded_slots,
        .shed_slots = shed_count,
        .quarantined_slots = quarantined_count,
        .deadline_slots = deadline_count,
        .cancelled_slots = cancelled_count,
        .wall_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - batch_start)
                            .count()};
  }
  return results;
}

size_t Warehouse::document_count() const {
  size_t count = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mutex);
    count += shard.documents.size();
  }
  return count;
}

bool Warehouse::BreakerAdmits(const std::string& url,
                              const PipelineOptions& pipeline) {
  if (pipeline.breaker_failure_threshold <= 0) return true;  // Disabled.
  Shard& shard = ShardFor(url);
  MutexLock lock(shard.mutex);
  const auto it = shard.breakers.find(url);
  if (it == shard.breakers.end() || !it->second.open) return true;
  // While open, every probe_interval-th arrival is admitted as a probe
  // so a healed input can close its own breaker; the rest are rejected.
  const int interval = std::max(1, pipeline.breaker_probe_interval);
  const size_t seen = it->second.rejected_while_open++;
  return seen % static_cast<size_t>(interval) ==
         static_cast<size_t>(interval) - 1;
}

void Warehouse::RecordBreakerOutcome(const std::string& url, bool success,
                                     const PipelineOptions& pipeline) {
  if (pipeline.breaker_failure_threshold <= 0) return;  // Disabled.
  Shard& shard = ShardFor(url);
  MutexLock lock(shard.mutex);
  if (success) {
    shard.breakers.erase(url);  // Healed: forget the history entirely.
    return;
  }
  Breaker& breaker = shard.breakers[url];
  breaker.consecutive_failures++;
  if (breaker.consecutive_failures >= pipeline.breaker_failure_threshold) {
    breaker.open = true;
  }
}

void Warehouse::RecordStoreHealth(const Status& saved,
                                  const PipelineOptions& pipeline) {
  if (saved.ok()) {
    io_failure_streak_.store(0, std::memory_order_release);
    return;
  }
  // Only real I/O errors advance the streak: a deadline or cancellation
  // during a save says nothing about the store Env's health.
  if (saved.code() != StatusCode::kIOError) return;
  const size_t streak =
      io_failure_streak_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (pipeline.degrade_after_io_failures > 0 &&
      streak >= static_cast<size_t>(pipeline.degrade_after_io_failures)) {
    degraded_.store(true, std::memory_order_release);
  }
}

Warehouse::Health Warehouse::health() const {
  Health snapshot;
  snapshot.degraded = degraded_.load(std::memory_order_acquire);
  snapshot.io_failure_streak =
      io_failure_streak_.load(std::memory_order_acquire);
  snapshot.open_breakers = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mutex);
    for (const auto& [url, breaker] : shard.breakers) {
      if (breaker.open) snapshot.open_breakers++;
    }
  }
  snapshot.documents = document_count();
  return snapshot;
}

void Warehouse::ResetHealth() {
  degraded_.store(false, std::memory_order_release);
  io_failure_streak_.store(0, std::memory_order_release);
  for (Shard& shard : shards_) {
    MutexLock lock(shard.mutex);
    shard.breakers.clear();
  }
}

std::string Warehouse::Health::ToString() const {
  std::string out = degraded ? "DEGRADED (ingest rejected, reads served)"
                             : "healthy";
  out += ": io_failure_streak=" + std::to_string(io_failure_streak);
  out += " open_breakers=" + std::to_string(open_breakers);
  out += " documents=" + std::to_string(documents);
  return out;
}

std::vector<std::string> Warehouse::urls() const {
  std::vector<std::string> out;
  for (const auto& [url, doc] : SnapshotSlots()) out.push_back(url);
  return out;
}

int Warehouse::version_count(const std::string& url) const {
  Document* doc = FindDocument(url);
  if (doc == nullptr) return 0;
  MutexLock lock(doc->mutex);
  return doc->repo == nullptr ? 0 : doc->repo->version_count();
}

Result<XmlDocument> Warehouse::Checkout(const std::string& url,
                                        int version) const {
  Document* doc = FindDocument(url);
  if (doc == nullptr) {
    return Status::NotFound("unknown document: " + url);
  }
  MutexLock lock(doc->mutex);
  if (doc->repo == nullptr) {
    return Status::NotFound("document has no versions yet: " + url);
  }
  return doc->repo->Checkout(version);
}

std::vector<std::pair<std::string, Xid>> Warehouse::Search(
    std::string_view word) const {
  // Snapshot the slot list first: document locks are always taken
  // WITHOUT any shard lock held (Ingest acquires doc->mutex before it
  // re-enters shared state for the alerter, so nesting the other way
  // around would deadlock).
  std::vector<std::pair<std::string, Xid>> hits;
  for (const auto& [url, doc] : SnapshotSlots()) {
    MutexLock doc_lock(doc->mutex);
    if (doc->index_dirty && doc->repo != nullptr) {
      // A deferred-monitor batch left this index stale; rebuild it once
      // here — amortized, this is the same total work the batch skipped.
      doc->index = FullTextIndex::Build(doc->repo->current());
      doc->index_dirty = false;
    }
    for (Xid xid : doc->index.Lookup(word)) {
      hits.emplace_back(url, xid);
    }
  }
  return hits;
}

ChangeStatistics::LabelStats Warehouse::StatsForLabel(
    const std::string& label) const {
  MutexLock lock(stats_mutex_);
  return stats_.ForLabel(label);
}

std::string Warehouse::StatsReport(size_t limit) const {
  MutexLock lock(stats_mutex_);
  return stats_.Report(limit);
}

std::string Warehouse::SanitizeUrl(const std::string& url) {
  std::string out;
  out.reserve(url.size());
  for (char c : url) {
    out += (std::isalnum(static_cast<unsigned char>(c)) || c == '.' ||
            c == '-')
               ? c
               : '_';
  }
  return out.empty() ? "_" : out;
}

Status Warehouse::Save(const std::string& directory, Env* env) {
  if (env == nullptr) env = Env::Default();
  XYDIFF_RETURN_IF_ERROR(env->CreateDirs(directory));
  std::string manifest;
  for (const auto& [url, doc] : SnapshotSlots()) {
    MutexLock doc_lock(doc->mutex);
    if (doc->repo == nullptr) continue;  // Slot created, never committed.
    const std::string sub = directory + "/" + SanitizeUrl(url);
    XYDIFF_RETURN_IF_ERROR(SaveRepository(*doc->repo, sub, env));
    manifest += SanitizeUrl(url) + "\t" + url + "\n";
  }
  return env->WriteFileAtomic(directory + "/manifest.tsv", manifest);
}

Result<std::unique_ptr<Warehouse>> Warehouse::Load(
    const std::string& directory, DiffOptions options,
    std::vector<std::string>* skipped, Env* env) {
  if (env == nullptr) env = Env::Default();
  // A crashed DiffBatch group commit may have left a batch journal; roll
  // it forward (or discard a torn one) before trusting the slots.
  XYDIFF_RETURN_IF_ERROR(RecoverRepositoryBatch(directory, env));
  Result<std::string> manifest = env->ReadFile(directory + "/manifest.tsv");
  if (!manifest.ok()) {
    if (manifest.status().code() == StatusCode::kNotFound) {
      return Status::NotFound("no warehouse manifest in " + directory);
    }
    return manifest.status();
  }
  auto warehouse = std::make_unique<Warehouse>(options);
  for (std::string_view line : SplitLines(*manifest)) {
    const size_t tab = line.find('\t');
    if (tab == std::string_view::npos) continue;
    const std::string sub(line.substr(0, tab));
    const std::string url(line.substr(tab + 1));
    Result<VersionRepository> repo =
        LoadRepository(directory + "/" + sub, env);
    if (!repo.ok()) {
      // A malformed stored document loses only itself, never the batch:
      // record the error and keep loading the healthy documents.
      if (skipped != nullptr) {
        skipped->push_back(url + ": " + repo.status().ToString());
      }
      continue;
    }
    bool created = false;
    Document* slot = warehouse->FindOrCreateDocument(url, &created);
    // Uncontended (the warehouse is not yet published), but the slot's
    // contents are guarded members, so hold the lock anyway.
    MutexLock lock(slot->mutex);
    slot->repo = std::make_unique<VersionRepository>(std::move(*repo));
    slot->index = FullTextIndex::Build(slot->repo->current());
  }
  return warehouse;
}

}  // namespace xydiff
