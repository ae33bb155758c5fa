// `site`: one site-metadata snapshot (§6.2: ~14 000 pages, ~6 MB of XML)
// committed week after week with VersionRepository::Commit on one
// thread, in memory. Almost all of the time is BULD on a large tree; the
// warehouse, storage, monitor and thread pool are bypassed.

#include <algorithm>
#include <cmath>
#include <memory>

#include "common.h"
#include "mem_env.h"
#include "delta/delta_xml.h"
#include "simulator/web_corpus.h"
#include "timing_env.h"
#include "trace.h"
#include "xml/parser.h"

namespace perfbench {

using namespace xydiff;

namespace {

constexpr size_t kPages = 14000;
/// Commits per second of `--seconds`: about the rate of one thread on a
/// 4-vCPU Xeon VM. The work is fixed, not timed, so every size and ratio
/// is taken over the same inputs on every run.
constexpr double kCommitsPerSecond = 3;

/// Weekly commits of a traced run: a prefix of the untraced run's.
int TracedWeeks(double seconds) {
  return std::max(2, static_cast<int>(seconds));
}

/// Weekly commits after version 1 of an untraced run.
int Weeks(double seconds) {
  return std::max(TracedWeeks(seconds),
                  static_cast<int>(std::lround(kCommitsPerSecond * seconds)));
}

/// bench_site_snapshot's weekly churn for an active site.
ChangeSimOptions SiteWeek() {
  ChangeSimOptions week;
  week.delete_probability = 0.01;
  week.update_probability = 0.05;
  week.insert_probability = 0.015;
  week.move_probability = 0.004;
  return week;
}

struct SiteInputs {
  Rng rng;
  XmlDocument generator;  ///< Latest generated version, with XIDs.
  std::string v1;

  explicit SiteInputs(uint64_t seed) : rng(seed) {
    generator = GenerateSiteSnapshot(&rng, kPages);
    generator.AssignInitialXids();
    v1 = Text(generator);
  }
};

/// The set-up: parses version 1 and starts a repository with it.
/// Returns its wall and CPU seconds.
Elapsed SetUp(const std::string& v1, std::unique_ptr<VersionRepository>* repo,
              RunResult* result) {
  repo->reset();
  const Stopwatch watch;
  Result<XmlDocument> doc = ParseXml(v1);
  if (!doc.ok()) {
    result->Fail("site v1 parse: " + doc.status().ToString());
    return {};
  }
  *repo = std::make_unique<VersionRepository>(std::move(*doc));
  return watch.Read();
}

RunResult RunUntraced(const RunOptions& options) {
  RunResult result;
  SiteInputs inputs(options.seed);
  const ChangeSimOptions week = SiteWeek();
  // Set-up is sampled again after every commit on a throwaway
  // repository, so its median sees the same machine as the commits. The
  // reference is sampled right after it, and scales it and the commit
  // before it.
  std::unique_ptr<VersionRepository> repo, scratch;
  Samples setup, setup_wall;
  Reference reference;
  const auto add_setup = [&](const Elapsed& e) {
    const double scale = reference.Sample();
    setup.Add(e.cpu_s * scale);
    setup_wall.Add(e.wall_s);
    return scale;
  };
  add_setup(SetUp(inputs.v1, &repo, &result));
  if (!result.correct) return result;

  // The bounded figures are in process CPU time, which leaves out steal
  // time, scaled by the Reference; the wall-clock ones are details.
  Samples commits, commit_cpu;
  double timed = 0;
  uint64_t input_bytes = inputs.v1.size();
  uint64_t new_bytes = 0, delta_bytes = 0;
  std::string last_text = inputs.v1;
  const int weeks = Weeks(options.seconds);
  const int traced_weeks = TracedWeeks(options.seconds);
  for (int w = 0; w < weeks; ++w) {
    Result<std::string> text = NextVersion(&inputs.generator, week, &inputs.rng);
    if (!text.ok()) {
      result.Fail("generate: " + text.status().ToString());
      return result;
    }
    ++result.attempted;
    const Stopwatch watch;
    Result<XmlDocument> doc = ParseXml(*text);
    Result<int> version = 0;
    if (doc.ok()) version = repo->Commit(std::move(*doc));
    const Elapsed elapsed = watch.Read();
    const double seconds = elapsed.wall_s;
    const bool ok = doc.ok() && version.ok();
    new_bytes += text->size();
    input_bytes += text->size();
    if (!ok) {
      ++result.failed;
    } else {
      timed += seconds;
      commits.Add(seconds * 1e3);
      delta_bytes += SerializeDelta(**repo->DeltaFor(*version - 1)).size();
      last_text = std::move(*text);
    }
    if (w + 1 == traced_weeks) {
      AddAgreement(traced_weeks, delta_bytes, new_bytes, 0, result.failed,
                   &result);
    }
    const double scale = add_setup(SetUp(inputs.v1, &scratch, &result));
    scratch.reset();
    if (ok) commit_cpu.Add(elapsed.cpu_s * 1e3 * scale);
  }

  Result<XmlDocument> first = repo->Checkout(1);
  if (!first.ok() || Text(*first) != inputs.v1) {
    result.Fail("site: checkout of version 1 differs from its input");
  }
  if (Text(repo->current()) != last_text ||
      repo->version_count() != static_cast<int>(commits.count()) + 1) {
    result.Fail("site: current version differs from the last input");
  }

  const double store_bytes = static_cast<double>(repo->stored_delta_bytes() +
                                                 last_text.size());
  result.Add("setup_s", setup.Percentile(50), "s");
  result.Add("peak_rss_mb", PeakRssMb(), "MB");
  // Median rate, like the other workloads: 1 / median commit time.
  result.Add("ops_per_cpu_s", 1e3 / commit_cpu.Percentile(50), "1/s");
  result.Add("op_tail_cpu_ms", commit_cpu.Percentile(75), "ms");
  result.Add("delta_ratio",
             static_cast<double>(delta_bytes) / static_cast<double>(new_bytes),
             "ratio");
  result.Add("store_bytes_per_input_byte",
             store_bytes / static_cast<double>(input_bytes), "ratio");
  reference.Report(&result);
  result.Detail("setup_wall_s", setup_wall.Percentile(50), "s");
  result.Detail("ops_per_s", 1e3 / commits.Percentile(50), "1/s");
  result.Detail("commit_p75_ms", commits.Percentile(75), "ms");
  commits.Report("commit", &result);
  result.Detail("commit_tail_percentile", 75, "pct");
  result.Detail("mean_ops_per_s", static_cast<double>(commits.count()) / timed,
                "1/s");
  result.Detail("snapshot_bytes", static_cast<double>(inputs.v1.size()), "B");
  result.Detail("error_ratio",
                static_cast<double>(result.failed) /
                    static_cast<double>(std::max<uint64_t>(1, result.attempted)),
                "ratio");
  return result;
}

/// Traced run, over the first TracedWeeks() weeks of an untraced run:
/// every week is committed twice, once through the probe (spans around
/// each call, then the layer probes) and once plainly
/// into a twin repository; the difference of the two parse+commit
/// times is the tracing overhead. The final repository is then checked
/// out, and saved and reloaded through the timing Env.
RunResult RunTraced(const RunOptions& options) {
  RunResult result;
  SiteInputs inputs(options.seed);
  const ChangeSimOptions week = SiteWeek();
  Tracer tracer;
  LayerTotals totals;
  Probe probe(&tracer, &totals, nullptr, /*reuse_arenas=*/false);
  MemEnv mem;
  TimingEnv env(&mem);

  std::unique_ptr<VersionRepository> traced, twin;
  SetUp(inputs.v1, &twin, &result);
  {
    Result<XmlDocument> doc = probe.Parse(inputs.v1);
    if (!doc.ok()) {
      result.Fail("site v1 parse");
      return result;
    }
    traced = std::make_unique<VersionRepository>(std::move(*doc));
  }

  const int weeks = TracedWeeks(options.seconds);
  double traced_s = 0, untraced_s = 0, request_s = 0, unattributed_s = 0;
  uint64_t traced_delta = 0, untraced_delta = 0, new_bytes = 0;
  uint64_t traced_failed = 0;
  std::string last_text;
  for (int w = 0; w < weeks; ++w) {
    Result<std::string> text = NextVersion(&inputs.generator, week, &inputs.rng);
    if (!text.ok()) {
      result.Fail("generate: " + text.status().ToString());
      return result;
    }
    result.attempted += 2;
    tracer.SetRequest(tracer.NextRequest());
    const double begin = tracer.Now();
    const size_t mark = tracer.Mark();
    {
      Scope request(&tracer, "request.commit");
      Result<XmlDocument> doc = probe.Parse(*text);
      Result<size_t> xml_bytes = size_t{0};
      XmlDocument old_version;
      if (doc.ok()) {
        xml_bytes = probe.Commit(traced.get(), std::move(*doc), &old_version);
      }
      if (!xml_bytes.ok() || !probe.ProbeCommit(*traced, &old_version).ok()) {
        ++traced_failed;
      } else {
        traced_delta += *xml_bytes;
      }
    }
    const double end = tracer.Now();
    request_s += end - begin;
    unattributed_s += tracer.Uncovered(LayerPrefixes(), begin, end);
    traced_s += tracer.TotalSince("xml.parse", mark) +
                tracer.TotalSince("repository.commit", mark);

    const auto plain = Clock::now();
    Result<XmlDocument> doc = ParseXml(*text);
    Result<int> version = 0;
    if (doc.ok()) version = twin->Commit(std::move(*doc));
    untraced_s += SecondsBetween(plain, Clock::now());
    if (!doc.ok() || !version.ok()) {
      ++result.failed;
    } else {
      untraced_delta += SerializeDelta(**twin->DeltaFor(*version - 1)).size();
    }
    new_bytes += text->size();
    last_text = std::move(*text);
  }

  result.failed += traced_failed;
  if (traced_delta != untraced_delta) {
    result.Fail("site: traced and untraced deltas differ in size");
  }
  tracer.SetRequest(tracer.NextRequest());
  if (!probe.Checkout(*traced, 1, inputs.v1)) {
    result.Fail("site: checkout of version 1 differs from its input");
  }
  const std::string store = "site";
  const Status saved =
      probe.SaveBatch({RepositorySaveSlot{traced.get(), "site"}}, store, &env);
  const StorageCounters io = env.counters();
  Result<VersionRepository> loaded = probe.Load(store + "/site", &env);
  if (!saved.ok() || !loaded.ok() || Text(loaded->current()) != last_text ||
      loaded->version_count() != traced->version_count()) {
    result.Fail("site: saved and reloaded repository differs");
  }

  StorageFigures storage;
  storage.input_bytes = static_cast<double>(new_bytes + inputs.v1.size());
  TraceFigures trace;
  trace.overhead_s = traced_s - untraced_s;
  trace.unattributed_s = unattributed_s;
  trace.wall_s = request_s;
  AddLayerMetrics(totals, io, storage, WarehouseFigures{}, trace, &result);
  AddAgreement(weeks, traced_delta, new_bytes, 0, traced_failed, &result);
  result.Detail("check.delta_bytes_traced", static_cast<double>(traced_delta),
                "B");
  result.Detail("check.delta_bytes_untraced",
                static_cast<double>(untraced_delta), "B");
  result.Detail("spans", static_cast<double>(tracer.size()), "count");
  if (!tracer.Write(options.out_dir + "/spans-site-" +
                    std::to_string(options.seed) + ".json")) {
    result.Fail("cannot write the span file");
  }
  return result;
}

}  // namespace

RunResult RunSite(const RunOptions& options) {
  return options.trace ? RunTraced(options) : RunUntraced(options);
}

}  // namespace perfbench
