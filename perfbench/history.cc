// `history`: reads beside writes on a loaded store. Set-up builds 192
// URLs x 24 versions with DiffBatch into a durable store, saves it and
// loads it back. Then one client runs a closed loop: 85%
// Warehouse::Checkout of a uniformly random (url, version), 10% Search
// for a word of a current version, 5% durable single-URL DiffBatch of
// that URL's next version.
//
// Why 192 x 24 and not 48 x 48: read costs are set by the few largest
// documents, whose sizes random-walk as versions accrue. On a 4-vCPU
// Xeon VM, with 48 x 48, ten seeds spread ops/s by 0.26 and the Checkout
// p90 by 0.30 (quartile distance / median); 192 x 24 (twice the versions
// in all) brought both to about 0.1.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>

#include "common.h"
#include "mem_env.h"
#include "monitor/index.h"
#include "simulator/web_corpus.h"
#include "timing_env.h"
#include "trace.h"
#include "version/warehouse.h"
#include "xml/parser.h"

namespace perfbench {

using namespace xydiff;

namespace {

constexpr size_t kUrls = 192;
constexpr size_t kVersions = 24;
constexpr size_t kRateWindow = 500;  ///< Ops per throughput sample.
constexpr int kWorkers = 2;
constexpr double kCheckoutShare = 0.85;
constexpr double kSearchShare = 0.10;
constexpr const char* kSubscription = "//item";
/// Client ops per second of `--seconds`: about the rate of the closed
/// loop on a 4-vCPU Xeon VM. The work is fixed, not timed, so every size
/// and ratio is taken over the same ops on every run.
constexpr double kOpsPerSecond = 550;
constexpr double kTracedOpsPerSecond = 150;

/// Client ops of a traced run: a prefix of the untraced run's ops.
size_t TracedOps(double seconds) {
  return static_cast<size_t>(std::max(1.0, seconds) * kTracedOpsPerSecond);
}

/// Client ops of an untraced run.
size_t Ops(double seconds) {
  return std::max(TracedOps(seconds),
                  static_cast<size_t>(std::lround(kOpsPerSecond * seconds)));
}

std::string UrlName(size_t i) {
  char name[32];
  std::snprintf(name, sizeof(name), "doc-%02zu.example", i);
  return name;
}

struct HistoryInputs {
  Rng rng;
  std::vector<XmlDocument> generators;  ///< Current version of each URL.
  std::vector<std::string> urls;
  std::vector<std::vector<std::string>> texts;  ///< texts[u][v - 1].
  std::vector<std::vector<std::string>> words;  ///< Of the current version.
  uint64_t bytes = 0;

  explicit HistoryInputs(uint64_t seed) : rng(seed) {
    generators = StratifiedWebCorpus(&rng, kUrls);
    texts.resize(kUrls);
    words.resize(kUrls);
    for (size_t u = 0; u < kUrls; ++u) {
      urls.push_back(UrlName(u));
      texts[u].push_back(Text(generators[u]));
      bytes += texts[u].back().size();
    }
    for (size_t v = 2; v <= kVersions; ++v) {
      for (size_t u = 0; u < kUrls; ++u) {
        if (!Next(u).ok()) texts.clear();
      }
    }
    for (size_t u = 0; u < kUrls; ++u) RefreshWords(u);
  }

  Status Next(size_t u) {
    Result<std::string> text =
        NextVersion(&generators[u], WeeklyWebChangeProfile(), &rng);
    if (!text.ok()) return text.status();
    bytes += text->size();
    texts[u].push_back(std::move(*text));
    return Status::OK();
  }

  /// Words are taken from the parsed text, as the index sees it: the
  /// generator may hold adjacent text nodes that parse back as one.
  void RefreshWords(size_t u) {
    words[u].clear();
    Result<XmlDocument> doc = ParseXml(texts[u].back());
    if (doc.ok()) CollectWords(doc->root(), 64, &words[u]);
  }
};

/// What building the store produced.
struct Built {
  double seconds = -1;  ///< Spent in DiffBatch; -1 on error.
  uint64_t delta_bytes = 0;  ///< XML delta bytes of versions 2..kVersions.
  uint64_t new_bytes = 0;    ///< Bytes of those versions.
};

/// DiffBatch of every URL's versions 1..kVersions into `store`, one call
/// per version.
Built Build(const HistoryInputs& inputs, const std::string& store,
            int threads, Env* env) {
  Warehouse warehouse;
  const Warehouse::PipelineOptions pipeline = Pipeline(store, threads, env);
  Built built;
  double seconds = 0;
  for (size_t v = 0; v < kVersions; ++v) {
    std::vector<Warehouse::DiffJob> jobs;
    for (size_t u = 0; u < kUrls; ++u) {
      jobs.push_back({inputs.urls[u], inputs.texts[u][v]});
      if (v > 0) built.new_bytes += inputs.texts[u][v].size();
    }
    const auto start = Clock::now();
    for (const auto& report : warehouse.DiffBatch(std::move(jobs), pipeline)) {
      if (!report.ok() || report->store_degraded) return built;
      built.delta_bytes += report->delta_bytes;
    }
    seconds += SecondsBetween(start, Clock::now());
  }
  if (warehouse.Save(store, env).ok()) built.seconds = seconds;
  return built;
}

/// The set-up: Warehouse::Load of `store`, then the subscription.
/// Returns the Load's wall and CPU seconds, or nothing on error.
std::optional<Elapsed> LoadTimed(const std::string& store, Env* env,
                                 std::unique_ptr<Warehouse>* out) {
  out->reset();
  const Stopwatch watch;
  Result<std::unique_ptr<Warehouse>> loaded =
      Warehouse::Load(store, DiffOptions{}, nullptr, env);
  const Elapsed elapsed = watch.Read();
  if (!loaded.ok()) return std::nullopt;
  *out = std::move(*loaded);
  if (!(*out)->Subscribe("items", kSubscription).ok()) return std::nullopt;
  return elapsed;
}

enum class Op { kCheckout, kSearch, kWrite };

/// One draw of the client: which operation, on which URL, and which
/// version (checkout) or word (search).
struct Draw {
  Op op = Op::kCheckout;
  size_t url = 0;
  int version = 1;
  std::string word;
};

/// The client's schedule. Op kinds are drawn at random. URLs go round a
/// seeded permutation, and each URL's checkouts walk its versions by a
/// golden-ratio stride from a seeded start: every (url, version) stays
/// equally likely, but each URL gets the same share of the ops on every
/// seed. A few large documents set the read cost, so with independent
/// draws the number of times they came up moved ops/s from seed to seed.
class Client {
 public:
  explicit Client(uint64_t seed) : rng_(seed * 0x9E3779B97F4A7C15ULL + 1) {
    for (size_t u = 0; u < kUrls; ++u) {
      order_.push_back(u);
      phase_.push_back(rng_.NextDouble());
    }
    for (size_t i = kUrls; i > 1; --i) {
      std::swap(order_[i - 1], order_[rng_.NextIndex(i)]);
    }
  }

  Draw Next(const HistoryInputs& inputs) {
    Draw d;
    const double r = rng_.NextDouble();
    d.url = order_[position_];
    position_ = (position_ + 1) % kUrls;
    if (r < kCheckoutShare) {
      d.op = Op::kCheckout;
      double& phase = phase_[d.url];
      phase += 0.6180339887498949;
      phase -= std::floor(phase);
      const size_t versions = inputs.texts[d.url].size();
      d.version = 1 + static_cast<int>(std::min(
          versions - 1,
          static_cast<size_t>(phase * static_cast<double>(versions))));
    } else if (r < kCheckoutShare + kSearchShare) {
      d.op = Op::kSearch;
      // A tiny document may have no text; search the next one that has.
      while (inputs.words[d.url].empty()) d.url = (d.url + 1) % kUrls;
      const std::vector<std::string>& words = inputs.words[d.url];
      d.word = words[rng_.NextIndex(words.size())];
    } else {
      d.op = Op::kWrite;
    }
    return d;
  }

 private:
  Rng rng_;
  std::vector<size_t> order_;  ///< Round of URLs.
  std::vector<double> phase_;  ///< Per URL, in [0, 1).
  size_t position_ = 0;
};

bool Contains(const std::vector<std::pair<std::string, Xid>>& hits,
              const std::string& url) {
  return std::any_of(hits.begin(), hits.end(),
                     [&](const auto& hit) { return hit.first == url; });
}

/// Outcome of one write.
struct WriteOutcome {
  bool ok = false;
  uint64_t delta_bytes = 0;
  uint64_t alerts = 0;
  PipelineStats stats;
};

WriteOutcome Write(Warehouse* warehouse, const std::string& url,
                   const std::string& text, int expected_version,
                   const Warehouse::PipelineOptions& pipeline) {
  WriteOutcome out;
  std::vector<Warehouse::DiffJob> jobs = {{url, text}};
  std::vector<Result<Warehouse::IngestReport>> reports =
      warehouse->DiffBatch(std::move(jobs), pipeline, &out.stats);
  if (reports.size() == 1 && reports[0].ok() && !reports[0]->store_degraded &&
      reports[0]->version == expected_version) {
    out.ok = true;
    out.delta_bytes = reports[0]->delta_bytes;
    out.alerts = reports[0]->alerts.size();
  }
  return out;
}

RunResult RunUntraced(const RunOptions& options) {
  RunResult result;
  HistoryInputs inputs(options.seed);
  MemEnv mem;
  const std::string store = "history";
  const Built built =
      inputs.texts.empty() ? Built{} : Build(inputs, store, kWorkers, &mem);
  if (built.seconds < 0) {
    result.Fail("history: building the store failed");
    return result;
  }
  // Set-up is sampled again after every window of ops on a throwaway
  // load, so its median sees the same machine as the client. The
  // reference is sampled right after it, and scales it and the window
  // before it.
  std::unique_ptr<Warehouse> warehouse, scratch;
  Samples setup, setup_wall;
  Reference reference;
  const auto add_setup = [&](const Elapsed& e) {
    const double scale = reference.Sample();
    setup.Add(e.cpu_s * scale);
    setup_wall.Add(e.wall_s);
    return scale;
  };
  const std::optional<Elapsed> first_load = LoadTimed(store, &mem, &warehouse);
  if (!first_load) {
    result.Fail("history: Warehouse::Load failed");
    return result;
  }
  add_setup(*first_load);

  const Warehouse::PipelineOptions pipeline = Pipeline(store, kWorkers, &mem);
  Client client(options.seed);
  // The bounded figures are in process CPU time, which leaves out steal
  // time, scaled by the Reference; the wall-clock ones are details.
  Samples checkouts, checkout_cpu, searches, writes;
  std::vector<double> window_checkout_cpu;  ///< Not yet scaled.
  double timed = 0, timed_cpu = 0;
  // delta_ratio is taken over every diff of the run, the build's and the
  // writes': the writes alone are a few hundred documents and spread it.
  uint64_t new_bytes = built.new_bytes, delta_bytes = built.delta_bytes;
  uint64_t alerts = 0;
  // Throughput is the median over windows of kRateWindow ops, so a burst
  // of contention from outside the process moves a few windows only.
  Samples window_rate, window_cpu_rate;
  double window_start = 0, window_cpu_start = 0;
  const size_t ops = Ops(options.seconds);
  const size_t traced_ops = TracedOps(options.seconds);
  while (result.attempted < ops) {
    const Draw d = client.Next(inputs);
    const std::string& url = inputs.urls[d.url];
    ++result.attempted;
    bool ok = false;
    Elapsed elapsed;
    if (d.op == Op::kCheckout) {
      const Stopwatch watch;
      Result<XmlDocument> doc = warehouse->Checkout(url, d.version);
      elapsed = watch.Read();
      ok = doc.ok();
      if (ok && Text(*doc) != inputs.texts[d.url][static_cast<size_t>(d.version - 1)]) {
        result.Fail("history: checkout of " + url + " v" +
                    std::to_string(d.version) + " differs from its input");
      }
      checkouts.Add(elapsed.wall_s * 1e3);
      window_checkout_cpu.push_back(elapsed.cpu_s * 1e3);
    } else if (d.op == Op::kSearch) {
      const Stopwatch watch;
      const auto hits = warehouse->Search(d.word);
      elapsed = watch.Read();
      ok = true;
      if (!Contains(hits, url)) {
        result.Fail("history: search for '" + d.word + "' misses " + url);
      }
      searches.Add(elapsed.wall_s * 1e3);
    } else {
      if (Status s = inputs.Next(d.url); !s.ok()) {
        result.Fail("generate: " + s.ToString());
        break;
      }
      const std::string& text = inputs.texts[d.url].back();
      const int expected = static_cast<int>(inputs.texts[d.url].size());
      const Stopwatch watch;
      const WriteOutcome w = Write(warehouse.get(), url, text, expected, pipeline);
      elapsed = watch.Read();
      ok = w.ok;
      inputs.RefreshWords(d.url);
      new_bytes += text.size();
      delta_bytes += w.delta_bytes;
      alerts += w.alerts;
      writes.Add(elapsed.wall_s * 1e3);
    }
    if (!ok) ++result.failed;
    timed += elapsed.wall_s;
    timed_cpu += elapsed.cpu_s;
    if (result.attempted == traced_ops) {
      AddAgreement(static_cast<double>(traced_ops), delta_bytes, new_bytes,
                   alerts, result.failed, &result);
    }
    if (result.attempted % kRateWindow == 0) {
      window_rate.Add(kRateWindow / (timed - window_start));
      const std::optional<Elapsed> load = LoadTimed(store, &mem, &scratch);
      scratch.reset();
      if (!load) {
        result.Fail("history: Warehouse::Load failed");
        break;
      }
      const double scale = add_setup(*load);
      window_cpu_rate.Add(kRateWindow / ((timed_cpu - window_cpu_start) * scale));
      for (double ms : window_checkout_cpu) checkout_cpu.Add(ms * scale);
      window_checkout_cpu.clear();
      window_start = timed;
      window_cpu_start = timed_cpu;
    }
  }
  // The ops after the last whole window.
  if (!window_checkout_cpu.empty()) {
    const double scale = reference.Sample();
    for (double ms : window_checkout_cpu) checkout_cpu.Add(ms * scale);
  }
  const uint64_t store_bytes = mem.Bytes(store);

  // Every acknowledged write is durable: a fresh load sees every version.
  std::unique_ptr<Warehouse> reloaded;
  if (!LoadTimed(store, &mem, &reloaded)) {
    result.Fail("history: reload failed");
  } else {
    for (size_t u = 0; u < kUrls; ++u) {
      if (reloaded->version_count(inputs.urls[u]) !=
          static_cast<int>(inputs.texts[u].size())) {
        result.Fail("history: reloaded " + inputs.urls[u] +
                    " lacks acknowledged versions");
      }
    }
  }

  result.Add("setup_s", setup.Percentile(50), "s");
  result.Add("peak_rss_mb", PeakRssMb(), "MB");
  result.Add("ops_per_cpu_s", window_cpu_rate.Percentile(50), "1/s");
  result.Add("op_tail_cpu_ms", checkout_cpu.Percentile(90), "ms");
  result.Add("delta_ratio",
             static_cast<double>(delta_bytes) / static_cast<double>(new_bytes),
             "ratio");
  result.Add("store_bytes_per_input_byte",
             static_cast<double>(store_bytes) / static_cast<double>(inputs.bytes),
             "ratio");
  reference.Report(&result);
  result.Detail("setup_wall_s", setup_wall.Percentile(50), "s");
  result.Detail("ops_per_s", window_rate.Percentile(50), "1/s");
  checkouts.Report("checkout", &result);
  result.Detail("checkout_p99_ms", checkouts.Percentile(99), "ms");
  searches.Report("search", &result);
  writes.Report("write", &result);
  result.Detail("write_p90_ms", writes.Percentile(90), "ms");
  result.Detail("alerts", static_cast<double>(alerts), "count");
  result.Detail("mean_ops_per_s", static_cast<double>(ops) / timed, "1/s");
  result.Detail("error_ratio",
                static_cast<double>(result.failed) /
                    static_cast<double>(std::max<uint64_t>(1, result.attempted)),
                "ratio");
  return result;
}

/// Traced run. Two copies of the loaded store see the first TracedOps()
/// ops of an untraced run: T through the timing Env with a span around each warehouse
/// call, U untraced; T minus U is the tracing overhead. Each op is then
/// replayed on per-URL repositories loaded with LoadRepository (the
/// probe): CheckoutStats and a plain ApplyDeltaInverse replay for
/// checkouts, FullTextIndex::Build for the documents a write left stale
/// plus Lookup for searches, and ParseXml → Commit → SerializeDelta →
/// Alerter::Evaluate → SaveRepositoryBatch for writes, then the codec
/// and candidate-index probes. T's warehouse
/// spans minus the probe's matching layer spans is the warehouse's own
/// time. The set-up build runs at 1 and at 2 workers for the scaling.
RunResult RunTraced(const RunOptions& options) {
  RunResult result;
  HistoryInputs inputs(options.seed);
  MemEnv mem;
  const std::string dir_t = "history-t", dir_u = "history-u",
                    dir_p = "history-probe";
  if (inputs.texts.empty()) {
    result.Fail("history: generating the inputs failed");
    return result;
  }
  const Built build_1w = Build(inputs, dir_t, 1, &mem);
  const Built build_2w = Build(inputs, dir_u, kWorkers, &mem);
  if (build_1w.seconds < 0 || build_2w.seconds < 0) {
    result.Fail("history: building the store failed");
    return result;
  }
  if (build_1w.delta_bytes != build_2w.delta_bytes) {
    result.Fail("history: 1- and 2-worker builds differ in delta bytes");
  }
  Tracer tracer;
  LayerTotals totals;
  Alerter alerter;
  if (!alerter.Subscribe("items", kSubscription).ok()) {
    result.Fail("subscribe");
    return result;
  }
  Probe probe(&tracer, &totals, &alerter, /*reuse_arenas=*/true);
  TimingEnv env_t(&mem), env_p(&mem);
  std::unique_ptr<Warehouse> wt, wu;
  if (!LoadTimed(dir_t, &env_t, &wt) || !LoadTimed(dir_u, &mem, &wu)) {
    result.Fail("history: Warehouse::Load failed");
    return result;
  }
  std::vector<std::unique_ptr<VersionRepository>> repos(kUrls);
  std::vector<bool> stale(kUrls, true);
  std::vector<FullTextIndex> indexes(kUrls);
  std::vector<RepositorySaveSlot> all;
  for (size_t u = 0; u < kUrls; ++u) {
    tracer.SetRequest(tracer.NextRequest());
    Result<VersionRepository> repo = probe.Load(dir_t + "/" + inputs.urls[u], &env_p);
    if (!repo.ok() || !probe.DecodeChain(*repo).ok()) {
      result.Fail("history: LoadRepository of " + inputs.urls[u]);
      return result;
    }
    repos[u] = std::make_unique<VersionRepository>(std::move(*repo));
    all.push_back({repos[u].get(), inputs.urls[u]});
  }
  {
    Scope span(&tracer, "bench.seed_probe_store");
    if (!SaveRepositoryBatch(all, dir_p, &env_p).ok()) {
      result.Fail("history: seeding the probe store failed");
      return result;
    }
  }
  // Storage figures count the writes' saves only, not loads or seeding.
  const StorageCounters io_before = env_p.counters();

  const Warehouse::PipelineOptions pt = Pipeline(dir_t, kWorkers, &env_t);
  const Warehouse::PipelineOptions pu = Pipeline(dir_u, kWorkers, &mem);
  Client client(options.seed);
  const size_t ops = TracedOps(options.seconds);
  double t_seconds = 0, u_seconds = 0, warehouse_spans = 0, probe_spans = 0;
  double stall_s = 0, peak_in_flight = 0;
  uint64_t t_delta = 0, u_delta = 0, t_alerts = 0, u_alerts = 0, p_delta = 0;
  uint64_t write_bytes = 0, t_failed = 0;
  // Save ms of each probe write, for storage.save_growth.
  std::vector<double> write_saves;
  const double loop_begin = tracer.Now();
  for (size_t i = 0; i < ops && result.correct; ++i) {
    const Draw d = client.Next(inputs);
    const std::string& url = inputs.urls[d.url];
    result.attempted += 2;
    tracer.SetRequest(tracer.NextRequest());
    const size_t op_mark = tracer.Mark();
    Scope request(&tracer, "request.op");
    if (d.op == Op::kCheckout) {
      const std::string& expected =
          inputs.texts[d.url][static_cast<size_t>(d.version - 1)];
      const auto start = Clock::now();
      Result<XmlDocument> doc = [&] {
        Scope span(&tracer, "warehouse.checkout");
        return wt->Checkout(url, d.version);
      }();
      t_seconds += SecondsBetween(start, Clock::now());
      if (!doc.ok()) ++t_failed;
      Result<XmlDocument> twin = [&] {
        Scope span(&tracer, "bench.untraced_copy");
        const auto plain = Clock::now();
        Result<XmlDocument> out = wu->Checkout(url, d.version);
        u_seconds += SecondsBetween(plain, Clock::now());
        return out;
      }();
      {
        Scope span(&tracer, "bench.verify");
        if (!doc.ok() || !twin.ok() || Text(*doc) != expected ||
            Text(*twin) != expected) {
          result.Fail("history: checkout of " + url + " differs");
        }
      }
      const size_t probe_mark = tracer.Mark();
      if (!probe.Checkout(*repos[d.url], d.version, expected)) {
        result.Fail("history: probe checkout of " + url + " differs");
      }
      probe_spans += tracer.TotalSince("repository.checkout", probe_mark);
    } else if (d.op == Op::kSearch) {
      const auto start = Clock::now();
      const auto hits = [&] {
        Scope span(&tracer, "warehouse.search");
        return wt->Search(d.word);
      }();
      t_seconds += SecondsBetween(start, Clock::now());
      const auto twin = [&] {
        Scope span(&tracer, "bench.untraced_copy");
        const auto plain = Clock::now();
        auto out = wu->Search(d.word);
        u_seconds += SecondsBetween(plain, Clock::now());
        return out;
      }();
      if (!Contains(hits, url) || hits.size() != twin.size()) {
        result.Fail("history: search for '" + d.word + "' differs");
      }
      const size_t probe_mark = tracer.Mark();
      for (size_t u = 0; u < kUrls; ++u) {
        if (!stale[u]) continue;
        const auto build = Clock::now();
        {
          Scope span(&tracer, "monitor.index_build");
          indexes[u] = FullTextIndex::Build(repos[u]->current());
        }
        totals.index_build_s += SecondsBetween(build, Clock::now());
        stale[u] = false;
      }
      const auto lookup = Clock::now();
      size_t found = 0;
      {
        Scope span(&tracer, "monitor.lookup");
        for (const FullTextIndex& index : indexes) found += index.Lookup(d.word).size();
      }
      totals.lookup_s += SecondsBetween(lookup, Clock::now());
      if (found != hits.size()) {
        result.Fail("history: probe search for '" + d.word + "' differs");
      }
      probe_spans += tracer.TotalSince("monitor.index_build", probe_mark) +
                     tracer.TotalSince("monitor.lookup", probe_mark);
    } else {
      if (Status s = [&] {
            Scope span(&tracer, "bench.generate");
            return inputs.Next(d.url);
          }();
          !s.ok()) {
        result.Fail("generate: " + s.ToString());
        break;
      }
      const std::string& text = inputs.texts[d.url].back();
      const int expected = static_cast<int>(inputs.texts[d.url].size());
      write_bytes += text.size();
      const auto start = Clock::now();
      const WriteOutcome w = [&] {
        Scope span(&tracer, "warehouse.diff_batch");
        return Write(wt.get(), url, text, expected, pt);
      }();
      t_seconds += SecondsBetween(start, Clock::now());
      const WriteOutcome twin = [&] {
        Scope span(&tracer, "bench.untraced_copy");
        const auto plain = Clock::now();
        WriteOutcome out = Write(wu.get(), url, text, expected, pu);
        u_seconds += SecondsBetween(plain, Clock::now());
        return out;
      }();
      if (!w.ok) ++t_failed;
      if (!w.ok || !twin.ok) ++result.failed;
      t_delta += w.delta_bytes;
      u_delta += twin.delta_bytes;
      t_alerts += w.alerts;
      u_alerts += twin.alerts;
      for (const StageStats& stage : w.stats.stages) stall_s += stage.stall_seconds;
      peak_in_flight = std::max(peak_in_flight, static_cast<double>(w.stats.peak_in_flight));

      const size_t probe_mark = tracer.Mark();
      Result<XmlDocument> doc = probe.Parse(text);
      Result<size_t> xml_bytes = size_t{0};
      XmlDocument old_version;
      if (doc.ok()) {
        xml_bytes =
            probe.Commit(repos[d.url].get(), std::move(*doc), &old_version);
      }
      const double save_before = totals.save_s;
      if (!xml_bytes.ok() ||
          !probe.SaveBatch({{repos[d.url].get(), url}}, dir_p, &env_p).ok() ||
          !probe.ProbeCommit(*repos[d.url], &old_version).ok()) {
        result.Fail("history: probe write of " + url + " failed");
      } else {
        p_delta += *xml_bytes;
        write_saves.push_back((totals.save_s - save_before) * 1e3);
      }
      stale[d.url] = true;
      {
        Scope span(&tracer, "bench.refresh_words");
        inputs.RefreshWords(d.url);
      }
      for (const char* step : {"xml.parse", "repository.commit",
                               "delta.serialize_xml", "monitor.alert",
                               "storage.save"}) {
        probe_spans += tracer.TotalSince(step, probe_mark);
      }
    }
    for (const char* call : {"warehouse.checkout", "warehouse.search",
                             "warehouse.diff_batch"}) {
      warehouse_spans += tracer.TotalSince(call, op_mark);
    }
  }
  const double loop_end = tracer.Now();

  if (t_delta != u_delta || u_delta != p_delta) {
    result.Fail("history: traced, untraced and probe delta bytes differ");
  }
  if (t_alerts != u_alerts || u_alerts != totals.alerts) {
    result.Fail("history: traced, untraced and probe alert counts differ");
  }

  StorageFigures storage;
  storage.input_bytes = static_cast<double>(write_bytes);
  // Last quarter of the writes' saves over the first quarter, in mean ms
  // per document (each write saves one).
  const size_t quarter = write_saves.size() / 4;
  if (quarter > 0) {
    double first = 0, last = 0;
    for (size_t i = 0; i < quarter; ++i) {
      first += write_saves[i];
      last += write_saves[write_saves.size() - 1 - i];
    }
    storage.save_growth = first > 0 ? last / first : 0;
  }
  WarehouseFigures warehouse;
  warehouse.scaling_2t = build_1w.seconds / build_2w.seconds;
  warehouse.self_s = warehouse_spans - probe_spans;
  warehouse.stall_s = stall_s;
  warehouse.peak_in_flight = peak_in_flight;
  TraceFigures trace;
  trace.overhead_s = t_seconds - u_seconds;
  trace.unattributed_s = tracer.Uncovered(LayerPrefixes(), loop_begin, loop_end);
  trace.wall_s = loop_end - loop_begin;
  AddLayerMetrics(totals, env_p.counters().Since(io_before), storage, warehouse, trace, &result);
  AddAgreement(static_cast<double>(ops), build_1w.delta_bytes + t_delta,
               build_1w.new_bytes + write_bytes, t_alerts, t_failed, &result);
  result.Detail("ops", static_cast<double>(ops), "count");
  result.Detail("check.delta_bytes_traced", static_cast<double>(t_delta), "B");
  result.Detail("check.delta_bytes_untraced", static_cast<double>(u_delta), "B");
  result.Detail("check.alerts_traced", static_cast<double>(t_alerts), "count");
  result.Detail("check.alerts_untraced", static_cast<double>(u_alerts), "count");
  result.Detail("spans", static_cast<double>(tracer.size()), "count");
  if (!tracer.Write(options.out_dir + "/spans-history-" +
                    std::to_string(options.seed) + ".json")) {
    result.Fail("cannot write the span file");
  }
  return result;
}

}  // namespace

RunResult RunHistory(const RunOptions& options) {
  return options.trace ? RunTraced(options) : RunUntraced(options);
}

}  // namespace perfbench
