#ifndef XYDIFF_VERSION_WAREHOUSE_H_
#define XYDIFF_VERSION_WAREHOUSE_H_

#include <array>
#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "delta/options.h"
#include "monitor/change_stats.h"
#include "util/arena.h"
#include "monitor/index.h"
#include "monitor/subscription.h"
#include "util/annotations.h"
#include "util/context.h"
#include "util/env.h"
#include "util/mutex.h"
#include "util/thread_pool.h"
#include "version/repository.h"

namespace xydiff {

/// The dynamic XML warehouse of Figure 1, assembled from the library's
/// parts: "When a new version of a document V(n) is received (or crawled
/// from the web), it is installed in the repository. It is then sent to
/// the diff module that also acquires the previous version V(n-1) ...
/// The delta is appended to the existing sequence of deltas ... The
/// alerter is in charge of detecting, in the document V(n) or in the
/// delta, patterns that may interest some subscriptions."
///
/// One Warehouse tracks many documents, keyed by URL. Each ingest runs
/// the full pipeline: diff against the stored version, append the delta
/// to the document's chain, evaluate subscriptions, feed the change
/// statistics, and maintain the full-text index incrementally.
///
/// Ingests of *different* documents are independent; the document map is
/// sharded by URL hash so concurrent ingests only contend when their
/// URLs share a shard. `IngestBatch` spreads pre-parsed documents over a
/// work-stealing pool; `DiffBatch` is the full crawler hand-off — each
/// worker takes one raw XML slot at a time through parse → diff → store,
/// and finished slots are persisted by group commit (see DESIGN.md
/// "Parallel warehouse pipeline"). All public methods are thread-safe.
class Warehouse {
 public:
  /// Outcome of one ingest.
  struct IngestReport {
    std::string url;
    int version = 0;          ///< Version number after the ingest.
    bool first_version = false;
    size_t operations = 0;    ///< Delta operations (0 for first versions).
    size_t delta_bytes = 0;   ///< Serialized delta size (DiffBatch only).
    size_t store_retries = 0; ///< Transient-I/O retries spent persisting.
    bool store_degraded = false;  ///< Persistence gave up after retries:
                                  ///< the in-memory ingest succeeded but
                                  ///< this slot is not on disk.
    std::vector<Alert> alerts;
  };

  /// One unit of crawler hand-off: a URL and the raw XML bytes fetched
  /// for it. Parsing happens inside the pipeline, on a worker.
  struct DiffJob {
    std::string url;
    std::string xml;
  };

  /// Tuning for DiffBatch.
  struct PipelineOptions {
    int threads = 4;
    /// When non-empty, the store stage persists each updated document's
    /// repository under `save_directory/<sanitized url>/` (crash-safe,
    /// see version/storage.h), so a crawler batch survives a crash.
    std::string save_directory;
    /// Env for store-stage persistence; nullptr means Env::Default().
    Env* env = nullptr;
    /// Transient I/O errors (Status kIOError: EIO, ENOSPC...) during
    /// persistence are retried up to this many times with doubling
    /// backoff before the slot is marked degraded. Corruption and other
    /// non-transient errors are never retried.
    int max_io_retries = 3;
    /// First retry backoff; doubles per attempt. Kept tiny so tests can
    /// exercise the path without slowing a healthy batch.
    int retry_backoff_ms = 1;
    /// Stop admitting new slots after the first failed slot; the
    /// not-yet-started remainder comes back as Status kAborted. Slots
    /// already in flight still finish (their documents stay consistent).
    bool fail_fast = false;
    /// Store stage group-commit width: up to this many finished slots
    /// are persisted by ONE batched crash-safe commit (one journal
    /// fsync + directory sync for the whole group instead of one
    /// manifest rename + sync per slot — see SaveRepositoryBatch).
    /// 1 = every slot commits as a group of its own.
    size_t group_commit_slots = 8;
    /// Deadline/cancellation for the whole batch (not owned; may be
    /// null). Checked at admission, at stage boundaries, inside the
    /// diff's long loops, and in the store stage up to (never past) the
    /// group-commit journal write. Slots that the context kills come
    /// back as kDeadlineExceeded/kCancelled; slots whose in-memory
    /// ingest finished but whose group save was cut short are reported
    /// degraded (in memory yes, on disk no — the journal is the single
    /// commit point, so disk is bit-exactly pre-batch for them).
    const Context* context = nullptr;
    /// Admission budget: cumulative raw-XML bytes admitted per DiffBatch
    /// call. Once spent, remaining slots are SHED with
    /// kResourceExhausted instead of queued (overload sheds at the front
    /// door, it does not build unbounded backlog). 0 = unlimited.
    size_t max_batch_bytes = 0;
    /// Per-document byte cap: a single oversized (possibly hostile)
    /// document is shed with kResourceExhausted before it can balloon a
    /// parse arena. 0 = unlimited.
    size_t max_document_bytes = 0;
    /// Circuit breaker: a URL whose slots fail this many consecutive
    /// times (parse/diff errors, or a deadline firing while its slot was
    /// being processed) has its breaker opened — subsequent slots for it
    /// are rejected with kUnavailable ("quarantined") without spending
    /// any work. 0 disables the breaker.
    int breaker_failure_threshold = 0;
    /// While a breaker is open, every Nth rejected admission is let
    /// through as a probe; one success closes the breaker. Deterministic
    /// (count-based, no wall clock) so tests replay exactly.
    int breaker_probe_interval = 4;
    /// Degraded mode: after this many consecutive store-stage commits
    /// failing with persistent IOError, the warehouse flips to degraded
    /// (health().degraded) and rejects further ingest admissions with
    /// kUnavailable while still serving reads (Search/Checkout). A
    /// successful commit, or ResetHealth(), clears it. 0 disables.
    int degrade_after_io_failures = 0;
  };

  explicit Warehouse(DiffOptions options = {}) : options_(options) {}

  Warehouse(const Warehouse&) = delete;
  Warehouse& operator=(const Warehouse&) = delete;

  /// Registers a subscription evaluated on every subsequent ingest.
  Status Subscribe(std::string id, std::string_view path_expression,
                   std::optional<ChangeKind> kind = std::nullopt,
                   std::string detail_contains = {});

  /// Ingests a crawled version of `url`: first sight stores it as
  /// version 1; later sights run the diff pipeline.
  Result<IngestReport> Ingest(const std::string& url, XmlDocument document);

  /// Ingests many pre-parsed documents concurrently on a work-stealing
  /// pool of up to `threads` workers. URLs must be distinct within one
  /// batch. Reports come back in input order; a failed document carries
  /// its error in the result slot.
  std::vector<Result<IngestReport>> IngestBatch(
      std::vector<std::pair<std::string, XmlDocument>> batch, int threads = 4);

  /// Diffs a batch of raw crawled documents. Each of up to `threads`
  /// workers claims the next slot, runs admission control, parses it
  /// into a pooled arena, diffs it against the stored version and
  /// appends the delta, then accounts the delta's serialized size. With
  /// a `save_directory`, finished slots park until `group_commit_slots`
  /// of them commit together; the calling thread flushes the last,
  /// partial group once the workers are done. A worker holds one slot
  /// at a time, so at most `threads` documents are parsed at once.
  ///
  /// Monitor maintenance is deferred, as for Load(): each touched
  /// document's full-text index is marked stale and rebuilt on the next
  /// Search(), and change statistics are not accumulated (StatsForLabel
  /// covers Ingest/IngestBatch only). Alerts are never deferred: with
  /// subscriptions registered they are evaluated inline as in Ingest().
  ///
  /// One malformed document fails only its own slot — the batch always
  /// completes. Reports come back in input order. When `stats` is
  /// non-null it receives the per-stage counters of this run.
  std::vector<Result<IngestReport>> DiffBatch(std::vector<DiffJob> jobs,
                                              const PipelineOptions& pipeline,
                                              PipelineStats* stats = nullptr);
  /// Default-tuned overload (C++ forbids a nested-class default argument
  /// whose initializers are still pending inside the enclosing class).
  std::vector<Result<IngestReport>> DiffBatch(std::vector<DiffJob> jobs) {
    return DiffBatch(std::move(jobs), PipelineOptions());
  }

  /// Point-in-time health snapshot (see DESIGN.md §3.17). `degraded`
  /// means the store Env reported persistent IOError and the warehouse
  /// is rejecting ingest while serving reads; `open_breakers` counts
  /// URLs currently quarantined by their circuit breaker.
  struct Health {
    bool degraded = false;
    size_t io_failure_streak = 0;
    size_t open_breakers = 0;
    size_t documents = 0;

    std::string ToString() const;
  };
  Health health() const;

  /// Operator action: leaves degraded mode and closes every circuit
  /// breaker. State also self-heals (a successful store commit resets
  /// the IOError streak; a successful probe closes a breaker).
  void ResetHealth();

  /// Number of tracked documents.
  size_t document_count() const;
  /// URLs in lexicographic order.
  std::vector<std::string> urls() const;
  /// Version count for one URL (0 if unknown).
  int version_count(const std::string& url) const;

  /// Checks out a version of one document.
  Result<XmlDocument> Checkout(const std::string& url, int version) const;

  /// Full-text lookup across all current versions: (url, text-node XID)
  /// pairs whose node contains `word`.
  std::vector<std::pair<std::string, Xid>> Search(
      std::string_view word) const;

  /// Aggregated per-label change statistics across every ingest.
  ChangeStatistics::LabelStats StatsForLabel(const std::string& label) const;
  std::string StatsReport(size_t limit = 10) const;

  /// Persists every document's repository under `directory/<sanitized
  /// url>/` (each crash-safe, see version/storage.h). Subscriptions,
  /// statistics and the index are derived state and are rebuilt on load.
  /// All I/O goes through `env` (nullptr means Env::Default()). Not
  /// const: each save fills its repository's StoredFormMemo.
  Status Save(const std::string& directory, Env* env = nullptr);

  /// Loads a warehouse persisted by Save. Subscriptions must be
  /// re-registered by the caller; the full-text index is rebuilt.
  /// A corrupt per-document repository does not kill the load: each
  /// repository self-heals where it can (quarantining corrupt tails —
  /// see LoadRepository), and one that is beyond recovery is skipped
  /// with its error recorded in `skipped` (when non-null), so one
  /// truncated file cannot take down the warehouse.
  /// (Returned by pointer: the warehouse owns mutexes and cannot move.)
  static Result<std::unique_ptr<Warehouse>> Load(
      const std::string& directory, DiffOptions options = {},
      std::vector<std::string>* skipped = nullptr, Env* env = nullptr);

 private:
  struct Document {
    /// Serializes ingests of this one document.
    Mutex mutex;
    std::unique_ptr<VersionRepository> repo XY_GUARDED_BY(mutex);
    FullTextIndex index XY_GUARDED_BY(mutex);
    /// True when a deferred-monitor ingest left `index` stale; the next
    /// reader (Search) or inline ingest rebuilds it from the current
    /// version before use.
    bool index_dirty XY_GUARDED_BY(mutex) = false;
  };

  /// Per-URL circuit breaker state (deterministic, count-based — no
  /// wall clock, so quarantine behaviour replays exactly in tests and
  /// fuzz trials). Lives beside the document map because failed parses
  /// never create a Document slot, yet must still trip the breaker.
  struct Breaker {
    int consecutive_failures = 0;
    bool open = false;
    size_t rejected_while_open = 0;  ///< Drives the probe cadence.
  };

  /// The document map is split into shards locked independently, so the
  /// map-shape lock is never a global serialization point for a batch.
  /// Only the map *shape* is guarded — Document contents have their own
  /// lock, always taken WITHOUT the shard lock held (see Search()).
  struct Shard {
    mutable Mutex mutex;
    std::map<std::string, std::unique_ptr<Document>> documents
        XY_GUARDED_BY(mutex);
    std::map<std::string, Breaker> breakers XY_GUARDED_BY(mutex);
  };
  static constexpr size_t kShards = 16;

  /// Directory-safe encoding of a URL.
  static std::string SanitizeUrl(const std::string& url);

  /// Ingest with the monitor-maintenance policy chosen by the caller:
  /// `defer_monitors` marks the document's index stale (lazily rebuilt)
  /// and skips statistics instead of updating both inline. Alert
  /// evaluation is unconditional whenever subscriptions exist.
  Result<IngestReport> IngestInternal(const std::string& url,
                                      XmlDocument document,
                                      bool defer_monitors,
                                      const Context* context = nullptr);

  /// Circuit-breaker admission check for `url`: true admits (closed
  /// breaker, or an open breaker's probe turn). False rejects and
  /// advances the probe counter. No-op (always true) when the breaker
  /// is disabled.
  bool BreakerAdmits(const std::string& url, const PipelineOptions& pipeline);
  /// Feeds one slot outcome into `url`'s breaker: success closes it and
  /// clears the streak; failure (slot-intrinsic: parse/diff error or a
  /// deadline during processing) may open it.
  void RecordBreakerOutcome(const std::string& url, bool success,
                            const PipelineOptions& pipeline);
  /// Feeds one store-commit outcome into degraded-mode tracking.
  /// Context errors (deadline/cancel) are neutral — only real IOError
  /// advances the streak, only success clears it.
  void RecordStoreHealth(const Status& saved,
                         const PipelineOptions& pipeline);

  Shard& ShardFor(const std::string& url) const;
  Document* FindDocument(const std::string& url) const;
  /// Finds or creates the slot for `url`; sets `created`.
  Document* FindOrCreateDocument(const std::string& url, bool* created);
  /// Snapshot of (url, slot) pairs across all shards, sorted by URL.
  std::vector<std::pair<std::string, Document*>> SnapshotSlots() const;

  DiffOptions options_;
  mutable std::array<Shard, kShards> shards_;
  // Parse-arena recycling across slots AND across batches: freed
  // documents return their (rewound) arenas here, so steady-state
  // pipelines stop allocating arena blocks entirely. Lives on the
  // warehouse — a per-batch pool would never carry blocks from one
  // crawl round to the next.
  mutable ArenaPool arena_pool_;
  // Subscriptions change rarely but are read on every ingest: readers
  // share, Subscribe() excludes.
  mutable SharedMutex alerter_mutex_;
  Alerter alerter_ XY_GUARDED_BY(alerter_mutex_);
  // Statistics are folded in per ingest; the heavy per-document work
  // happens in a thread-local collector, the merge is O(labels).
  mutable Mutex stats_mutex_;
  ChangeStatistics stats_ XY_GUARDED_BY(stats_mutex_);
  // Degraded-mode tracking (plain atomics, not a mutex: updated from
  // the store stage with document locks held, and a new lock there
  // would grow the lock-order graph for two monotonic counters).
  mutable std::atomic<size_t> io_failure_streak_{0};
  mutable std::atomic<bool> degraded_{false};
};

}  // namespace xydiff

#endif  // XYDIFF_VERSION_WAREHOUSE_H_
