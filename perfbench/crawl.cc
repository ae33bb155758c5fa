// `crawl`: the Xyleme crawler hand-off (§1–2, "the diff has to run at the
// speed of the indexer"). 300 URLs with web-like sizes get week after
// week of WeeklyWebChangeProfile versions; each week goes through
// Warehouse::DiffBatch in calls of 16 URLs with 2 workers, one `//item`
// subscription and a durable group-committed store.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "common.h"
#include "mem_env.h"
#include "monitor/index.h"
#include "simulator/web_corpus.h"
#include "timing_env.h"
#include "trace.h"
#include "version/warehouse.h"

namespace perfbench {

using namespace xydiff;

namespace {

constexpr size_t kUrls = 300;
constexpr size_t kCall = 16;     ///< URLs per DiffBatch call.
constexpr size_t kGroup = 8;     ///< DiffBatch's default group commit.
constexpr int kWorkers = 2;
constexpr const char* kSubscription = "//item";
/// Weeks per second of `--seconds`: about the rate at which 2 workers
/// get through them on a 4-vCPU Xeon VM. The work is fixed, not timed,
/// so every size and ratio is taken over the same inputs on every run.
constexpr double kWeeksPerSecond = 3;

/// Weeks of a traced run: a prefix of the untraced run's weeks.
int TracedWeeks(double seconds) {
  return std::max(2, static_cast<int>(seconds));
}

/// Weeks after the first-sight week of an untraced run.
int Weeks(double seconds) {
  return std::max(TracedWeeks(seconds),
                  static_cast<int>(std::lround(kWeeksPerSecond * seconds)));
}

std::string UrlName(size_t i) {
  char name[32];
  std::snprintf(name, sizeof(name), "page-%03zu.example", i);
  return name;
}

/// The crawler's view of the web: the latest text of every URL, and the
/// order in which this week's crawl hands the URLs over.
struct CrawlInputs {
  Rng rng;
  Rng order_rng;
  std::vector<XmlDocument> generators;
  std::vector<std::string> urls;
  std::vector<std::string> texts;  ///< This week's text per URL.
  std::vector<std::string> first;  ///< Week-1 text per URL.
  std::vector<size_t> order;       ///< Hand-off position -> URL index.
  uint64_t week_bytes = 0;

  explicit CrawlInputs(uint64_t seed) : rng(seed), order_rng(rng.Split()) {
    generators = StratifiedWebCorpus(&rng, kUrls);
    for (size_t i = 0; i < kUrls; ++i) {
      urls.push_back(UrlName(i));
      texts.push_back(Text(generators[i]));
      week_bytes += texts.back().size();
      order.push_back(i);
    }
    first = texts;
  }

  /// Generates every URL's next version and reshuffles the hand-off
  /// order, so the calls of 16 mix different documents week by week.
  Status NextWeek() {
    const ChangeSimOptions profile = WeeklyWebChangeProfile();
    week_bytes = 0;
    for (size_t i = 0; i < kUrls; ++i) {
      Result<std::string> text = NextVersion(&generators[i], profile, &rng);
      if (!text.ok()) return text.status();
      texts[i] = std::move(*text);
      week_bytes += texts[i].size();
    }
    for (size_t i = kUrls; i > 1; --i) {
      std::swap(order[i - 1], order[order_rng.NextIndex(i)]);
    }
    return Status::OK();
  }

  /// This week's jobs at hand-off positions [begin, end).
  std::vector<Warehouse::DiffJob> Jobs(size_t begin, size_t end) const {
    std::vector<Warehouse::DiffJob> jobs;
    for (size_t i = begin; i < end; ++i) {
      jobs.push_back({urls[order[i]], texts[order[i]]});
    }
    return jobs;
  }

  /// Week-1 jobs for URLs [begin, end).
  std::vector<Warehouse::DiffJob> FirstJobs(size_t begin, size_t end) const {
    std::vector<Warehouse::DiffJob> jobs;
    for (size_t i = begin; i < end; ++i) jobs.push_back({urls[i], first[i]});
    return jobs;
  }
};

std::unique_ptr<Warehouse> NewWarehouse() {
  auto warehouse = std::make_unique<Warehouse>();
  if (!warehouse->Subscribe("items", kSubscription).ok()) return nullptr;
  return warehouse;
}

/// What one week (or part of one) through a warehouse produced.
struct WeekOutcome {
  uint64_t docs = 0, failed = 0, delta_bytes = 0, alerts = 0;
  double seconds = 0;      ///< Wall seconds in DiffBatch.
  double cpu_seconds = 0;  ///< Process CPU seconds in DiffBatch.
};

/// Runs `jobs` through `warehouse` in one DiffBatch call.
void RunCall(Warehouse* warehouse, std::vector<Warehouse::DiffJob> jobs,
             const Warehouse::PipelineOptions& pipeline, WeekOutcome* out,
             PipelineStats* stats = nullptr) {
  const Stopwatch watch;
  std::vector<Result<Warehouse::IngestReport>> reports =
      warehouse->DiffBatch(std::move(jobs), pipeline, stats);
  const Elapsed elapsed = watch.Read();
  out->seconds += elapsed.wall_s;
  out->cpu_seconds += elapsed.cpu_s;
  for (const Result<Warehouse::IngestReport>& report : reports) {
    ++out->docs;
    if (!report.ok() || report->store_degraded) {
      ++out->failed;
      continue;
    }
    out->delta_bytes += report->delta_bytes;
    out->alerts += report->alerts.size();
  }
}

/// Checks that every URL's store holds its last acknowledged version.
void VerifyStore(const std::string& store, Env* env, const CrawlInputs& inputs,
                 const std::vector<int>& versions, RunResult* result) {
  for (size_t i = 0; i < kUrls; ++i) {
    Result<VersionRepository> repo =
        LoadRepository(store + "/" + inputs.urls[i], env);
    if (!repo.ok() || repo->version_count() != versions[i] ||
        Text(repo->current()) != inputs.texts[i]) {
      result->Fail("crawl: store of " + inputs.urls[i] +
                   " is not its last acknowledged version");
    }
  }
}

size_t CountUnpersisted(const std::string& store, Env* env,
                        const CrawlInputs& inputs) {
  size_t missing = 0;
  for (const std::string& url : inputs.urls) {
    if (!env->FileExists(store + "/" + url + "/MANIFEST")) ++missing;
  }
  return missing;
}

/// The set-up: the first-sight week into a fresh warehouse and store.
/// Returns its DiffBatch wall and CPU seconds.
Elapsed FirstSight(const CrawlInputs& inputs, const std::string& store,
                  Env* env, std::unique_ptr<Warehouse>* warehouse,
                  RunResult* result) {
  *warehouse = NewWarehouse();
  const Warehouse::PipelineOptions pipeline = Pipeline(store, kWorkers, env);
  WeekOutcome week;
  for (size_t b = 0; b < kUrls; b += kCall) {
    RunCall(warehouse->get(), inputs.FirstJobs(b, std::min(b + kCall, kUrls)),
            pipeline, &week);
  }
  if (week.failed > 0) result->Fail("crawl: first-sight week failed");
  return {week.seconds, week.cpu_seconds};
}

RunResult RunUntraced(const RunOptions& options) {
  RunResult result;
  CrawlInputs inputs(options.seed);
  MemEnv mem;
  const std::string store = "crawl";
  // Set-up is sampled once per week on a throwaway warehouse, so its
  // median sees the same machine as the rest of the run. The reference
  // is sampled right after it, and scales it and the week before it.
  Samples setup, setup_wall;
  Reference reference;
  std::unique_ptr<Warehouse> warehouse, scratch;
  const auto add_setup = [&](const Elapsed& e) {
    const double scale = reference.Sample();
    setup.Add(e.cpu_s * scale);
    setup_wall.Add(e.wall_s);
    return scale;
  };
  add_setup(FirstSight(inputs, store, &mem, &warehouse, &result));
  const size_t unpersisted = CountUnpersisted(store, &mem, inputs);
  std::vector<int> versions(kUrls, 1);
  uint64_t input_bytes = inputs.week_bytes;

  const Warehouse::PipelineOptions pipeline = Pipeline(store, kWorkers, &mem);
  // The bounded figures are in process CPU time, which leaves out steal
  // time, scaled by the Reference; the wall-clock ones are details.
  Samples calls, call_cpu;
  std::vector<double> week_call_cpu;  ///< This week's, not yet scaled.
  WeekOutcome total;
  uint64_t new_bytes = 0;
  const int weeks = Weeks(options.seconds);
  const int traced_weeks = TracedWeeks(options.seconds);
  double stall_s = 0;
  // Throughput is the median over weeks: a burst of contention from
  // outside the process moves a few weeks, not the figure.
  Samples weekly_rate, weekly_cpu_rate;
  for (int w = 0; w < weeks && result.correct; ++w) {
    if (Status s = inputs.NextWeek(); !s.ok()) {
      result.Fail("generate: " + s.ToString());
      break;
    }
    const double week_start = total.seconds;
    const double week_cpu_start = total.cpu_seconds;
    for (size_t b = 0; b < kUrls; b += kCall) {
      const size_t end = std::min(b + kCall, kUrls);
      const double before = total.seconds;
      const double cpu_before = total.cpu_seconds;
      const uint64_t failed_before = total.failed;
      PipelineStats stats;
      RunCall(warehouse.get(), inputs.Jobs(b, end), pipeline, &total, &stats);
      calls.Add((total.seconds - before) * 1e3);
      week_call_cpu.push_back((total.cpu_seconds - cpu_before) * 1e3);
      for (const StageStats& stage : stats.stages) stall_s += stage.stall_seconds;
      if (total.failed != failed_before) {
        result.Fail("crawl: a DiffBatch slot failed");
      }
      for (size_t i = b; i < end; ++i) {
        ++versions[inputs.order[i]];
        new_bytes += inputs.texts[inputs.order[i]].size();
      }
    }
    weekly_rate.Add(kUrls / (total.seconds - week_start));
    if (w + 1 == traced_weeks) {
      AddAgreement(traced_weeks, total.delta_bytes, new_bytes, total.alerts,
                   total.failed, &result);
    }
    const double scale =
        add_setup(FirstSight(inputs, "crawl-setup", &mem, &scratch, &result));
    scratch.reset();
    weekly_cpu_rate.Add(kUrls / ((total.cpu_seconds - week_cpu_start) * scale));
    for (double ms : week_call_cpu) call_cpu.Add(ms * scale);
    week_call_cpu.clear();
  }
  result.attempted = total.docs;
  result.failed = total.failed;
  const uint64_t store_bytes = mem.Bytes(store);
  input_bytes += new_bytes;
  VerifyStore(store, &mem, inputs, versions, &result);

  result.Add("setup_s", setup.Percentile(50), "s");
  result.Add("peak_rss_mb", PeakRssMb(), "MB");
  result.Add("ops_per_cpu_s", weekly_cpu_rate.Percentile(50), "1/s");
  result.Add("op_tail_cpu_ms", call_cpu.Percentile(90), "ms");
  result.Add("delta_ratio",
             static_cast<double>(total.delta_bytes) /
                 static_cast<double>(new_bytes),
             "ratio");
  result.Add("store_bytes_per_input_byte",
             static_cast<double>(store_bytes) / static_cast<double>(input_bytes),
             "ratio");
  reference.Report(&result);
  result.Detail("setup_wall_s", setup_wall.Percentile(50), "s");
  result.Detail("ops_per_s", weekly_rate.Percentile(50), "1/s");
  calls.Report("batch", &result);
  result.Detail("batch_p90_ms", calls.Percentile(90), "ms");
  result.Detail("docs_per_s", static_cast<double>(total.docs) / total.seconds,
                "1/s");
  result.Detail("weeks", weeks, "count");
  result.Detail("alerts", static_cast<double>(total.alerts), "count");
  result.Detail("stall_s", stall_s, "s");
  result.Detail("unpersisted_first_versions", static_cast<double>(unpersisted),
                "count");
  result.Detail("error_ratio",
                static_cast<double>(result.failed) /
                    static_cast<double>(std::max<uint64_t>(1, result.attempted)),
                "ratio");
  return result;
}

/// Traced run. Four copies of the crawl see the same weeks, the first
/// TracedWeeks() of an untraced run:
///   A  the replay: each slot's steps one public call at a time at one
///      worker (ParseXml → Commit → SerializeDelta → Alerter::Evaluate),
///      saved with SaveRepositoryBatch in groups of 8 through the timing
///      Env, each step in its own span; after the week, in a pass of its
///      own, the probes DiffBatch has no step for (codec round trip,
///      candidate index);
///   B  DiffBatch at 1 worker through the timing Env, in spans — its
///      wall time minus A's pipeline spans is the warehouse's own time;
///   C  DiffBatch at 1 worker, untraced — B minus C is the overhead;
///   D  DiffBatch at 2 workers, untraced — C over D is the 2-worker
///      scaling, and D's PipelineStats give stall and peak in flight.
/// All four must agree exactly on delta bytes, alerts and errors.
RunResult RunTraced(const RunOptions& options) {
  RunResult result;
  CrawlInputs inputs(options.seed);
  Tracer tracer;
  LayerTotals totals;
  Alerter alerter;
  if (!alerter.Subscribe("items", kSubscription).ok()) {
    result.Fail("subscribe");
    return result;
  }
  Probe probe(&tracer, &totals, &alerter, /*reuse_arenas=*/true);
  MemEnv mem;
  TimingEnv env_a(&mem), env_b(&mem);
  const std::string dir_a = "crawl-a", dir_b = "crawl-b", dir_c = "crawl-c",
                    dir_d = "crawl-d";
  std::unique_ptr<Warehouse> wb = NewWarehouse(), wc = NewWarehouse(),
                             wd = NewWarehouse();
  const Warehouse::PipelineOptions pb = Pipeline(dir_b, 1, &env_b);
  const Warehouse::PipelineOptions pc = Pipeline(dir_c, 1, &mem);
  const Warehouse::PipelineOptions pd = Pipeline(dir_d, kWorkers, &mem);

  // Week 1: first sight everywhere.
  std::vector<std::unique_ptr<VersionRepository>> repos(kUrls);
  for (size_t i = 0; i < kUrls; ++i) {
    tracer.SetRequest(tracer.NextRequest());
    Scope request(&tracer, "request.first_sight");
    Result<XmlDocument> doc = probe.Parse(inputs.texts[i]);
    if (!doc.ok()) {
      result.Fail("crawl: week-1 parse");
      return result;
    }
    Scope create(&tracer, "repository.create");
    repos[i] = std::make_unique<VersionRepository>(std::move(*doc));
  }
  WeekOutcome first_b, first_c, first_d;
  for (size_t b = 0; b < kUrls; b += kCall) {
    const size_t end = std::min(b + kCall, kUrls);
    RunCall(wb.get(), inputs.FirstJobs(b, end), pb, &first_b);
    RunCall(wc.get(), inputs.FirstJobs(b, end), pc, &first_c);
    RunCall(wd.get(), inputs.FirstJobs(b, end), pd, &first_d);
  }
  if (first_b.failed + first_c.failed + first_d.failed > 0) {
    result.Fail("crawl: first-sight week failed");
  }
  const size_t unpersisted = CountUnpersisted(dir_b, &mem, inputs);
  uint64_t input_bytes = inputs.week_bytes;

  const int weeks = TracedWeeks(options.seconds);
  WeekOutcome out_b, out_c, out_d;
  uint64_t a_delta_bytes = 0, a_failed = 0, new_bytes = 0;
  double replay_wall = 0, unattributed = 0, pipeline_spans = 0;
  double first_week_save = 0, last_week_save = 0;
  double stall_s = 0, peak_in_flight = 0;
  for (int w = 0; w < weeks && result.correct; ++w) {
    if (Status s = inputs.NextWeek(); !s.ok()) {
      result.Fail("generate: " + s.ToString());
      break;
    }
    input_bytes += inputs.week_bytes;
    new_bytes += inputs.week_bytes;
    // A: the replay.
    const double week_begin = tracer.Now();
    const size_t week_mark = tracer.Mark();
    const double save_before = totals.save_s;
    std::vector<std::pair<size_t, XmlDocument>> superseded;
    superseded.reserve(kUrls);
    for (size_t b = 0; b < kUrls; b += kGroup) {
      const size_t end = std::min(b + kGroup, kUrls);
      std::vector<RepositorySaveSlot> slots;
      for (size_t position = b; position < end; ++position) {
        const size_t i = inputs.order[position];
        tracer.SetRequest(tracer.NextRequest());
        Scope request(&tracer, "request.doc");
        Result<XmlDocument> doc = probe.Parse(inputs.texts[i]);
        Result<size_t> xml_bytes = size_t{0};
        XmlDocument old_version;
        if (doc.ok()) {
          xml_bytes =
              probe.Commit(repos[i].get(), std::move(*doc), &old_version);
        }
        if (!xml_bytes.ok()) {
          ++a_failed;
          continue;
        }
        a_delta_bytes += *xml_bytes;
        superseded.emplace_back(i, std::move(old_version));
        slots.push_back({repos[i].get(), inputs.urls[i]});
      }
      tracer.SetRequest(tracer.NextRequest());
      if (!probe.SaveBatch(slots, dir_a, &env_a).ok()) ++a_failed;
    }
    for (const char* step : {"xml.parse", "repository.commit",
                             "delta.serialize_xml", "monitor.alert",
                             "storage.save"}) {
      pipeline_spans += tracer.TotalSince(step, week_mark);
    }
    for (auto& [i, old_version] : superseded) {
      tracer.SetRequest(tracer.NextRequest());
      Scope request(&tracer, "request.probe");
      if (!probe.ProbeCommit(*repos[i], &old_version).ok()) ++a_failed;
    }
    {
      Scope span(&tracer, "bench.free");
      superseded.clear();
    }
    const double week_end = tracer.Now();
    replay_wall += week_end - week_begin;
    unattributed += tracer.Uncovered(LayerPrefixes(), week_begin, week_end);
    const double week_save = (totals.save_s - save_before) / kUrls;
    if (w == 0) first_week_save = week_save;
    last_week_save = week_save;

    // B, C, D: the warehouse, call by call.
    for (size_t b = 0; b < kUrls; b += kCall) {
      const size_t end = std::min(b + kCall, kUrls);
      tracer.SetRequest(tracer.NextRequest());
      {
        Scope span(&tracer, "warehouse.diff_batch");
        RunCall(wb.get(), inputs.Jobs(b, end), pb, &out_b);
      }
      RunCall(wc.get(), inputs.Jobs(b, end), pc, &out_c);
      PipelineStats stats;
      RunCall(wd.get(), inputs.Jobs(b, end), pd, &out_d, &stats);
      for (const StageStats& stage : stats.stages) stall_s += stage.stall_seconds;
      peak_in_flight =
          std::max(peak_in_flight, static_cast<double>(stats.peak_in_flight));
    }
  }
  result.attempted = out_b.docs + out_c.docs + out_d.docs + weeks * kUrls;
  result.failed = out_b.failed + out_c.failed + out_d.failed + a_failed;

  // Agreement of the four copies.
  if (a_delta_bytes != out_b.delta_bytes || out_b.delta_bytes != out_c.delta_bytes ||
      out_c.delta_bytes != out_d.delta_bytes) {
    result.Fail("crawl: replay and DiffBatch delta bytes differ");
  }
  if (totals.alerts != out_b.alerts || out_b.alerts != out_c.alerts ||
      out_c.alerts != out_d.alerts) {
    result.Fail("crawl: replay and DiffBatch alert counts differ");
  }

  const StorageCounters io = env_a.counters();
  // Read side of the replay's store: load, check, check out version 1,
  // and the full-text index the first Search would build.
  std::vector<std::string> words;
  for (size_t i = 0; i < kUrls && result.correct; ++i) {
    tracer.SetRequest(tracer.NextRequest());
    Scope request(&tracer, "request.verify");
    Result<VersionRepository> repo = probe.Load(dir_a + "/" + inputs.urls[i], &env_a);
    if (!repo.ok() || repo->version_count() != weeks + 1 ||
        Text(repo->current()) != inputs.texts[i]) {
      result.Fail("crawl: replay store of " + inputs.urls[i] + " differs");
      break;
    }
    if (!probe.Checkout(*repo, 1, inputs.first[i])) {
      result.Fail("crawl: version 1 of " + inputs.urls[i] + " differs");
    }
    const auto start = Clock::now();
    FullTextIndex index;
    {
      Scope span(&tracer, "monitor.index_build");
      index = FullTextIndex::Build(repo->current());
    }
    totals.index_build_s += SecondsBetween(start, Clock::now());
    CollectWords(repo->current().root(), 64, &words);
    const auto lookup = Clock::now();
    {
      Scope span(&tracer, "monitor.lookup");
      for (const std::string& word : words) index.Lookup(word);
    }
    totals.lookup_s += SecondsBetween(lookup, Clock::now());
  }
  std::vector<int> versions(kUrls, weeks + 1);
  VerifyStore(dir_d, &mem, inputs, versions, &result);

  StorageFigures storage;
  storage.input_bytes = static_cast<double>(input_bytes);
  storage.save_growth =
      first_week_save > 0 ? last_week_save / first_week_save : 0;
  storage.unpersisted_first_versions = static_cast<double>(unpersisted);
  WarehouseFigures warehouse;
  warehouse.scaling_2t = out_d.seconds > 0 ? out_c.seconds / out_d.seconds : 0;
  warehouse.self_s = out_b.seconds - pipeline_spans;
  warehouse.stall_s = stall_s;
  warehouse.peak_in_flight = peak_in_flight;
  TraceFigures trace;
  trace.overhead_s = out_b.seconds - out_c.seconds;
  trace.unattributed_s = unattributed;
  trace.wall_s = replay_wall;
  AddLayerMetrics(totals, io, storage, warehouse, trace, &result);

  const StorageCounters io_b = env_b.counters();
  AddAgreement(weeks, out_b.delta_bytes, new_bytes, out_b.alerts,
               out_b.failed, &result);
  result.Detail("weeks", weeks, "count");
  result.Detail("check.delta_bytes_replay", static_cast<double>(a_delta_bytes), "B");
  result.Detail("check.delta_bytes_diffbatch", static_cast<double>(out_c.delta_bytes), "B");
  result.Detail("check.alerts_replay", static_cast<double>(totals.alerts), "count");
  result.Detail("check.alerts_diffbatch", static_cast<double>(out_c.alerts), "count");
  result.Detail("diffbatch_1w_traced_s", out_b.seconds, "s");
  result.Detail("diffbatch_1w_untraced_s", out_c.seconds, "s");
  result.Detail("diffbatch_2w_untraced_s", out_d.seconds, "s");
  result.Detail("diffbatch_1w_syncs_per_doc",
                static_cast<double>(io_b.sync_files + io_b.sync_dirs) /
                    static_cast<double>(std::max<uint64_t>(1, out_b.docs)),
                "count");
  result.Detail("spans", static_cast<double>(tracer.size()), "count");
  if (!tracer.Write(options.out_dir + "/spans-crawl-" +
                    std::to_string(options.seed) + ".json")) {
    result.Fail("cannot write the span file");
  }
  return result;
}

}  // namespace

RunResult RunCrawl(const RunOptions& options) {
  return options.trace ? RunTraced(options) : RunUntraced(options);
}

}  // namespace perfbench
