// Fault-injection bench — the durability protocol of DESIGN.md §3.12.
//
// The paper's warehouse ("millions of documents loaded each day") runs
// unattended; a crash mid-store must never cost committed history. This
// bench measures what that guarantee costs and how well it holds:
//
//   * the crash-point sweep: every operation index of the save protocol
//     is crashed once; the reopened store must always be the old or the
//     new version (hybrids = 0), and recovery must be fast;
//   * the commit protocol's size: env operations per save (each op is a
//     syscall-ish unit, and each is a potential crash point);
//   * throughput of the crash-safe save and of recovery loads;
//   * incremental-save cost at chain lengths 8, 64 and 512 (one commit,
//     then one save), which shows what a save pays per stored file;
//   * transient-error absorption in the DiffBatch store stage: retries
//     spent vs slots degraded under an injected EIO window.
//
// Results land in BENCH_faults.json for machine comparison across runs.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "simulator/change_simulator.h"
#include "simulator/doc_generator.h"
#include "util/fault_env.h"
#include "util/random.h"
#include "version/storage.h"
#include "version/warehouse.h"
#include "xml/serializer.h"

namespace {

namespace fs = std::filesystem;
using namespace xydiff;

VersionRepository MakeRepo(uint64_t seed, int extra_versions,
                           size_t target_bytes,
                           const ChangeSimOptions& changes = {}) {
  Rng rng(seed);
  DocGenOptions gen;
  gen.target_bytes = target_bytes;
  VersionRepository repo(GenerateDocument(&rng, gen));
  for (int v = 0; v < extra_versions; ++v) {
    Result<SimulatedChange> change =
        SimulateChanges(repo.current(), changes, &rng);
    if (!change.ok() || !repo.Commit(std::move(change->new_version)).ok()) {
      std::fprintf(stderr, "corpus construction failed\n");
      std::exit(1);
    }
  }
  return repo;
}

}  // namespace

int main() {
  using bench::Timer;

  bench::Banner("Fault injection: crash sweep, recovery, retry absorption",
                "ICDE 2002 paper, Section 2 (persistent versioned storage)");

  const fs::path dir =
      fs::temp_directory_path() /
      ("xydiff_bench_faults_" + std::to_string(::getpid()));
  const std::string store = dir.string();

  VersionRepository before = MakeRepo(271828, 3, 4096);
  VersionRepository after = MakeRepo(271828, 3, 4096);
  {
    Rng rng(314159);
    Result<SimulatedChange> change =
        SimulateChanges(after.current(), ChangeSimOptions{}, &rng);
    if (!change.ok() || !after.Commit(std::move(change->new_version)).ok()) {
      return 1;
    }
  }

  // --- commit protocol size: env ops for one incremental save ----------
  fs::remove_all(dir);
  FaultInjectionEnv counting;
  if (!SaveRepository(before, store, &counting).ok()) return 1;
  const int ops_initial_save = counting.op_count();
  counting.Reset();
  if (!SaveRepository(after, store, &counting).ok()) return 1;
  const int ops_incremental_save = counting.op_count();
  std::printf("env ops per save        : %d initial, %d incremental\n",
              ops_initial_save, ops_incremental_save);

  // --- crash-point sweep ------------------------------------------------
  int crash_points = 0;
  int recovered_old = 0;
  int recovered_new = 0;
  int hybrids = 0;
  double recover_seconds = 0;
  for (int op = 0; op < 10000; ++op) {
    fs::remove_all(dir);
    FaultInjectionEnv env;
    if (!SaveRepository(before, store, &env).ok()) return 1;
    env.Reset();
    env.CrashAt(op);
    // The save may fail (expected) — the sweep judges the reopened disk.
    (void)SaveRepository(after, store, &env);
    const bool triggered = env.triggered();
    if (!env.DropUnsyncedData().ok()) return 1;

    Timer recover;
    RecoveryReport report;
    Result<VersionRepository> reopened = LoadRepository(store, nullptr,
                                                        &report);
    recover_seconds += recover.Seconds();
    if (!reopened.ok()) {
      ++hybrids;  // Committed history became unreadable: protocol bug.
    } else if (reopened->version_count() == after.version_count()) {
      ++recovered_new;
    } else if (reopened->version_count() == before.version_count()) {
      ++recovered_old;
    } else {
      ++hybrids;
    }
    if (!triggered) break;  // Walked off the end of the protocol.
    ++crash_points;
  }
  std::printf("crash sweep             : %d crash points, %d -> old, "
              "%d -> new, %d hybrids\n",
              crash_points, recovered_old, recovered_new, hybrids);
  std::printf("recovery                : %.3f ms mean\n",
              1e3 * recover_seconds / (crash_points + 1));

  // --- save / load throughput (the price of durability) -----------------
  constexpr int kRounds = 50;
  fs::remove_all(dir);
  Timer save_timer;
  for (int i = 0; i < kRounds; ++i) {
    fs::remove_all(dir);
    if (!SaveRepository(after, store, nullptr).ok()) return 1;
  }
  const double save_seconds = save_timer.Seconds() / kRounds;
  Timer load_timer;
  for (int i = 0; i < kRounds; ++i) {
    if (!LoadRepository(store).ok()) return 1;
  }
  const double load_seconds = load_timer.Seconds() / kRounds;
  std::printf("crash-safe save         : %.3f ms (%d versions, fsync'd)\n",
              1e3 * save_seconds, after.version_count());
  std::printf("verified load           : %.3f ms (checksums checked)\n",
              1e3 * load_seconds);

  // --- incremental save cost vs chain length ----------------------------
  // The warehouse's steady state: the store already holds the chain up
  // to the previous version; one commit, then one save. Chain deltas
  // never change once committed, so a save encodes only the new delta
  // and the current files; what still grows with chain length is
  // per-file bookkeeping (MANIFEST parse and format, one existence check
  // per stored file, the cleanup listing). Each rep adds one
  // version (lengths N..N+kSaveReps-1); the median is reported with
  // the min-max spread, in wall time (fsync'd) and process CPU time.
  // Text updates only, so the document (and each delta) keeps its size
  // and chain length is the one variable.
  constexpr int kSaveReps = 7;
  ChangeSimOptions updates;
  updates.delete_probability = 0;
  updates.insert_probability = 0;
  updates.move_probability = 0;
  bench::JsonReport incremental;
  for (const int chain : {8, 64, 512}) {
    VersionRepository repo =
        MakeRepo(577215 + chain, chain - 1, 4096, updates);
    fs::remove_all(dir);
    if (!SaveRepository(repo, store, nullptr).ok()) return 1;
    Rng rng(chain);
    std::vector<double> wall_ms, cpu_ms;
    for (int rep = 0; rep < kSaveReps; ++rep) {
      Result<SimulatedChange> change =
          SimulateChanges(repo.current(), updates, &rng);
      if (!change.ok() || !repo.Commit(std::move(change->new_version)).ok()) {
        return 1;
      }
      const double cpu_start = bench::ProcessCpuSeconds();
      Timer wall;
      if (!SaveRepository(repo, store, nullptr).ok()) return 1;
      wall_ms.push_back(1e3 * wall.Seconds());
      cpu_ms.push_back(1e3 * (bench::ProcessCpuSeconds() - cpu_start));
    }
    const auto [wall_min, wall_max] =
        std::minmax_element(wall_ms.begin(), wall_ms.end());
    const auto [cpu_min, cpu_max] =
        std::minmax_element(cpu_ms.begin(), cpu_ms.end());
    std::printf("incremental save @%-4d : %.3f ms wall [%.3f-%.3f], "
                "%.3f ms cpu [%.3f-%.3f] (median of %d)\n",
                chain, bench::Percentile(wall_ms, 0.5), *wall_min, *wall_max,
                bench::Percentile(cpu_ms, 0.5), *cpu_min, *cpu_max,
                kSaveReps);
    incremental.AddNumber("chain" + std::to_string(chain) + "_wall_ms",
                          bench::Percentile(wall_ms, 0.5));
    incremental.AddNumber("chain" + std::to_string(chain) + "_cpu_ms",
                          bench::Percentile(cpu_ms, 0.5));
  }

  // --- DiffBatch transient-error absorption -----------------------------
  constexpr int kDocs = 32;
  Warehouse warehouse;
  Rng rng(161803);
  DocGenOptions gen;
  gen.target_bytes = 2048;
  std::vector<Warehouse::DiffJob> jobs;
  for (int i = 0; i < kDocs; ++i) {
    XmlDocument doc = GenerateDocument(&rng, gen);
    doc.AssignInitialXids();
    const std::string url = "doc" + std::to_string(i);
    if (!warehouse.Ingest(url, doc.Clone()).ok()) return 1;
    Result<SimulatedChange> change =
        SimulateChanges(doc, ChangeSimOptions{}, &rng);
    if (!change.ok()) return 1;
    jobs.push_back({url, SerializeDocument(change->new_version)});
  }
  fs::remove_all(dir);
  constexpr int kBurstOps = 20;
  FaultInjectionEnv flaky;
  flaky.InjectErrorAt(/*op=*/5, kBurstOps);  // An EIO burst mid-batch.
  Warehouse::PipelineOptions pipeline;
  pipeline.threads = 4;
  pipeline.save_directory = store;
  pipeline.env = &flaky;
  pipeline.retry_backoff_ms = 1;
  PipelineStats stats;
  Timer batch_timer;
  const auto results = warehouse.DiffBatch(std::move(jobs), pipeline, &stats);
  const double batch_seconds = batch_timer.Seconds();
  // Per-slot sum: a group commit's retries are charged to every slot in
  // the group, so this reads group_commit_slots times the per-commit
  // count from the store stage.
  size_t retries = 0;
  size_t degraded = 0;
  size_t failed_slots = 0;
  for (const auto& r : results) {
    if (!r.ok()) {
      ++failed_slots;
      continue;
    }
    retries += r->store_retries;
    if (r->store_degraded) ++degraded;
  }
  const size_t commit_retries = stats.stages.back().retries;
  std::printf("diff batch under EIO    : %d docs, %zu retries absorbed "
              "(%zu per commit, groups of %zu), %zu degraded, %zu failed, "
              "%d env ops for a %d-op burst, %.3f s\n",
              kDocs, retries, commit_retries, pipeline.group_commit_slots,
              degraded, failed_slots, flaky.op_count(), kBurstOps,
              batch_seconds);

  bench::Rule();

  bench::JsonReport sweep;
  sweep.AddNumber("crash_points", crash_points);
  sweep.AddNumber("recovered_old", recovered_old);
  sweep.AddNumber("recovered_new", recovered_new);
  sweep.AddNumber("hybrids", hybrids);
  sweep.AddNumber("mean_recover_ms",
                  1e3 * recover_seconds / (crash_points + 1));

  bench::JsonReport batch;
  batch.AddNumber("documents", kDocs);
  batch.AddNumber("retries_absorbed", retries);
  batch.AddNumber("commit_retries", commit_retries);
  batch.AddNumber("group_commit_slots", pipeline.group_commit_slots);
  batch.AddNumber("burst_ops", kBurstOps);
  batch.AddNumber("env_ops", flaky.op_count());
  batch.AddNumber("degraded_slots", degraded);
  batch.AddNumber("failed_slots", failed_slots);
  batch.AddNumber("wall_seconds", batch_seconds);

  bench::JsonReport report;
  report.AddString("bench", "faults");
  report.AddNumber("versions", after.version_count());
  report.AddNumber("ops_initial_save", ops_initial_save);
  report.AddNumber("ops_incremental_save", ops_incremental_save);
  report.AddNumber("save_ms", 1e3 * save_seconds);
  report.AddNumber("load_ms", 1e3 * load_seconds);
  report.AddObject("incremental_save", incremental);
  report.AddObject("crash_sweep", sweep);
  report.AddObject("diff_batch_eio", batch);
  report.AddNumber("peak_rss_bytes",
                   static_cast<double>(bench::PeakRssBytes()));
  if (!report.WriteFile("BENCH_faults.json")) {
    std::fprintf(stderr, "failed to write BENCH_faults.json\n");
    return 1;
  }
  std::printf("wrote BENCH_faults.json\n");

  fs::remove_all(dir);
  // The sweep's whole point: committed history survived every crash.
  return hybrids == 0 ? 0 : 1;
}
