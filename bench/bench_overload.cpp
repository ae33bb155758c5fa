// Overload resilience experiment — shedding, deadlines, and tail latency.
//
// The warehouse's admission control exists so that a crawler surge
// degrades a batch gracefully instead of building unbounded backlog:
// with `max_batch_bytes` set, a DiffBatch offered 2x its byte budget
// must shed the excess with kResourceExhausted at the front door and
// finish the admitted half with bounded latency. A batch handed a dead
// or dying Context must fail its remaining slots promptly with
// kDeadlineExceeded — never half-persist a slot.
//
// Three measurements, one simulated crawl:
//   1. Sustained 2x overload: every wave offers twice the byte budget;
//      per-wave wall latency (p50/p99) and the shed rate are recorded.
//   2. Expired deadline: a batch under Context::WithTimeout(0) must fail
//      every slot as kDeadlineExceeded and return almost immediately
//      (the deadline-hit accuracy gate — no slot may dodge the verdict).
//   3. Mid-flight deadline: a batch under a deadline shorter than its
//      expected runtime; the overshoot past the deadline bounds how long
//      in-flight slots keep running after the verdict.
//
// Results land in BENCH_overload.json for machine comparison.
//
// `--smoke` runs a small corpus as a ctest gate: nonzero shed rate,
// some admitted slots still succeeding, every expired-deadline slot
// reporting kDeadlineExceeded, and bounded p99 / deadline overshoot,
// else exit 1.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "simulator/change_simulator.h"
#include "simulator/web_corpus.h"
#include "util/context.h"
#include "util/random.h"
#include "util/status.h"
#include "version/warehouse.h"
#include "xml/serializer.h"

namespace {

using namespace xydiff;
using bench::Timer;

using bench::Percentile;

struct WaveOutcome {
  double seconds = 0;
  size_t offered_bytes = 0;
  size_t ok = 0;
  size_t shed = 0;
  size_t other_failed = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const size_t documents = smoke ? 48 : 160;
  const int waves = smoke ? 6 : 24;

  bench::Banner("Overload resilience: admission shedding and deadlines",
                "ICDE 2002 paper, Figure 1 warehouse under crawler surge");

  // A web-like corpus that keeps changing week over week. The size tail
  // is capped so one log-normal outlier cannot dwarf the whole byte
  // budget and turn the shed rate into a coin flip.
  Rng rng(86400);
  WebCorpusOptions corpus_options;
  corpus_options.document_count = documents;
  corpus_options.median_bytes = smoke ? 2 * 1024 : 4 * 1024;
  corpus_options.max_bytes = 64 * 1024;
  std::vector<XmlDocument> corpus = GenerateWebCorpus(&rng, corpus_options);
  const ChangeSimOptions weekly = WeeklyWebChangeProfile();
  for (XmlDocument& doc : corpus) doc.AssignInitialXids();

  // Evolves every document one week and returns the crawl hand-off.
  auto next_wave = [&]() -> std::vector<Warehouse::DiffJob> {
    std::vector<Warehouse::DiffJob> jobs;
    jobs.reserve(corpus.size());
    for (size_t i = 0; i < corpus.size(); ++i) {
      Result<SimulatedChange> change =
          SimulateChanges(corpus[i], weekly, &rng);
      if (change.ok()) corpus[i] = std::move(change->new_version);
      jobs.push_back({"doc" + std::to_string(i), SerializeDocument(corpus[i])});
    }
    return jobs;
  };

  Warehouse warehouse;
  Warehouse::PipelineOptions pipeline;
  pipeline.threads = 4;

  // Wave 0 seeds every URL at version 1, untimed and unbudgeted.
  {
    std::vector<Warehouse::DiffJob> seed;
    seed.reserve(corpus.size());
    for (size_t i = 0; i < corpus.size(); ++i) {
      seed.push_back({"doc" + std::to_string(i), SerializeDocument(corpus[i])});
    }
    for (auto& r : warehouse.DiffBatch(std::move(seed), pipeline)) {
      if (!r.ok()) {
        std::fprintf(stderr, "seed wave failed: %s\n",
                     r.status().ToString().c_str());
        return 1;
      }
    }
  }

  // --- Measurement 1: sustained 2x overload. -----------------------------
  // Each wave's byte budget is half of what the crawl offers, so the
  // admission gate must shed roughly half the bytes every single wave.
  std::vector<WaveOutcome> outcomes;
  std::vector<double> wave_ms;
  size_t total_slots = 0, total_ok = 0, total_shed = 0, total_other = 0;
  for (int wave = 0; wave < waves; ++wave) {
    std::vector<Warehouse::DiffJob> jobs = next_wave();
    WaveOutcome outcome;
    for (const auto& job : jobs) outcome.offered_bytes += job.xml.size();
    Warehouse::PipelineOptions overloaded = pipeline;
    overloaded.max_batch_bytes = outcome.offered_bytes / 2;
    PipelineStats stats;
    Timer timer;
    std::vector<Result<Warehouse::IngestReport>> results =
        warehouse.DiffBatch(std::move(jobs), overloaded, &stats);
    outcome.seconds = timer.Seconds();
    for (const auto& r : results) {
      if (r.ok()) {
        ++outcome.ok;
      } else if (r.status().code() == StatusCode::kResourceExhausted) {
        ++outcome.shed;
      } else {
        ++outcome.other_failed;
      }
    }
    if (outcome.shed != stats.shed_slots) {
      std::fprintf(stderr,
                   "GATE FAILED: wave %d shed accounting mismatch (%zu slots "
                   "vs %zu in stats)\n",
                   wave, outcome.shed, stats.shed_slots);
      return 1;
    }
    total_slots += results.size();
    total_ok += outcome.ok;
    total_shed += outcome.shed;
    total_other += outcome.other_failed;
    wave_ms.push_back(1e3 * outcome.seconds);
    outcomes.push_back(outcome);
  }
  const double shed_rate =
      static_cast<double>(total_shed) / static_cast<double>(total_slots);
  const double p50_ms = Percentile(wave_ms, 0.50);
  const double p99_ms = Percentile(wave_ms, 0.99);

  // --- Measurement 2: expired deadline (deadline-hit accuracy). ----------
  // Every slot must come back kDeadlineExceeded — a slot failing with
  // anything else means a check-point misreported the verdict.
  size_t expired_deadline_slots = 0, expired_misreported = 0;
  double expired_wall_ms = 0;
  {
    std::vector<Warehouse::DiffJob> jobs = next_wave();
    const size_t slot_count = jobs.size();
    const Context dead = Context::WithTimeout(std::chrono::milliseconds(0));
    Warehouse::PipelineOptions deadlined = pipeline;
    deadlined.context = &dead;
    Timer timer;
    std::vector<Result<Warehouse::IngestReport>> results =
        warehouse.DiffBatch(std::move(jobs), deadlined);
    expired_wall_ms = 1e3 * timer.Seconds();
    for (const auto& r : results) {
      if (!r.ok() && r.status().code() == StatusCode::kDeadlineExceeded) {
        ++expired_deadline_slots;
      } else {
        ++expired_misreported;
      }
    }
    if (results.size() != slot_count) {
      std::fprintf(stderr, "GATE FAILED: expired-deadline batch lost slots\n");
      return 1;
    }
  }

  // --- Measurement 3: mid-flight deadline overshoot. ---------------------
  // The deadline fires while the batch is running; the overshoot is how
  // long in-flight slots keep the batch alive past the verdict. Reported
  // always, gated only loosely (slow CI machines stretch single-slot
  // work, not the check-point placement under test).
  const double mid_deadline_ms = std::max(1.0, p50_ms / 3.0);
  size_t mid_deadline_slots = 0, mid_ok_slots = 0;
  double mid_overshoot_ms = 0;
  {
    std::vector<Warehouse::DiffJob> jobs = next_wave();
    const Context mid = Context::WithTimeout(std::chrono::milliseconds(
        static_cast<int64_t>(mid_deadline_ms)));
    Warehouse::PipelineOptions deadlined = pipeline;
    deadlined.context = &mid;
    PipelineStats stats;
    Timer timer;
    std::vector<Result<Warehouse::IngestReport>> results =
        warehouse.DiffBatch(std::move(jobs), deadlined, &stats);
    const double wall_ms = 1e3 * timer.Seconds();
    mid_overshoot_ms = std::max(0.0, wall_ms - mid_deadline_ms);
    for (const auto& r : results) {
      if (r.ok()) {
        ++mid_ok_slots;
      } else if (r.status().code() == StatusCode::kDeadlineExceeded) {
        ++mid_deadline_slots;
      }
    }
  }

  std::printf("corpus: %zu documents, %d overload waves at 2x the byte "
              "budget\n\n",
              documents, waves);
  std::printf("%-26s %10s %10s %10s %10s\n", "wave latency (ms)", "p50",
              "p99", "shed", "ok");
  bench::Rule();
  std::printf("%-26s %10.1f %10.1f %9.0f%% %10zu\n", "2x overload", p50_ms,
              p99_ms, 100.0 * shed_rate, total_ok);
  std::printf("\nexpired deadline : %zu/%zu slots kDeadlineExceeded in "
              "%.1fms (%zu misreported)\n",
              expired_deadline_slots,
              expired_deadline_slots + expired_misreported, expired_wall_ms,
              expired_misreported);
  std::printf("mid deadline     : %.1fms budget, overshoot %.1fms (%zu "
              "deadline, %zu ok)\n",
              mid_deadline_ms, mid_overshoot_ms, mid_deadline_slots,
              mid_ok_slots);

  bench::JsonReport report;
  report.AddString("mode", smoke ? "smoke" : "full");
  report.AddNumber("documents", static_cast<double>(documents));
  report.AddNumber("waves", static_cast<double>(waves));
  report.AddNumber("total_slots", static_cast<double>(total_slots));
  report.AddNumber("ok_slots", static_cast<double>(total_ok));
  report.AddNumber("shed_slots", static_cast<double>(total_shed));
  report.AddNumber("other_failed_slots", static_cast<double>(total_other));
  report.AddNumber("shed_rate", shed_rate);
  report.AddNumber("wave_ms_p50", p50_ms);
  report.AddNumber("wave_ms_p99", p99_ms);
  report.AddNumber("expired_deadline_slots",
                   static_cast<double>(expired_deadline_slots));
  report.AddNumber("expired_misreported_slots",
                   static_cast<double>(expired_misreported));
  report.AddNumber("expired_deadline_wall_ms", expired_wall_ms);
  report.AddNumber("mid_deadline_budget_ms", mid_deadline_ms);
  report.AddNumber("mid_deadline_overshoot_ms", mid_overshoot_ms);
  report.AddNumber("mid_deadline_slots",
                   static_cast<double>(mid_deadline_slots));
  report.AddNumber("mid_deadline_ok_slots", static_cast<double>(mid_ok_slots));
  report.AddNumber("peak_rss_bytes", static_cast<double>(bench::PeakRssBytes()));
  if (!report.WriteFile("BENCH_overload.json")) {
    std::fprintf(stderr, "warning: could not write BENCH_overload.json\n");
  } else {
    std::printf("\njson report    : BENCH_overload.json\n");
  }

  // --- Gates (smoke = ctest; the full run enforces them too). ------------
  bool ok = true;
  if (total_shed == 0) {
    std::fprintf(stderr, "GATE FAILED: 2x overload shed nothing — admission "
                 "control is not engaging\n");
    ok = false;
  }
  if (total_ok == 0) {
    std::fprintf(stderr, "GATE FAILED: overload waves admitted nothing — "
                 "shedding must degrade, not deny, service\n");
    ok = false;
  }
  if (total_other != 0) {
    std::fprintf(stderr, "GATE FAILED: %zu slots failed with neither success "
                 "nor kResourceExhausted under pure overload\n",
                 total_other);
    ok = false;
  }
  if (expired_misreported != 0) {
    std::fprintf(stderr, "GATE FAILED: %zu expired-deadline slots reported "
                 "something other than kDeadlineExceeded\n",
                 expired_misreported);
    ok = false;
  }
  // Loose absolute bounds: the real signal is the json trend, but a
  // runaway (a slot ignoring its deadline, a wave stuck in backlog)
  // must still fail CI outright.
  if (expired_wall_ms > 5000.0) {
    std::fprintf(stderr, "GATE FAILED: expired-deadline batch took %.0fms — "
                 "slots are not failing fast\n", expired_wall_ms);
    ok = false;
  }
  if (mid_overshoot_ms > 10000.0) {
    std::fprintf(stderr, "GATE FAILED: mid-flight deadline overshot by "
                 "%.0fms\n", mid_overshoot_ms);
    ok = false;
  }
  if (p99_ms > 60000.0) {
    std::fprintf(stderr, "GATE FAILED: p99 wave latency %.0fms under 2x "
                 "overload\n", p99_ms);
    ok = false;
  }
  if (!ok) return 1;
  std::printf("gates          : shed>0, ok>0, deadline accuracy 100%%, "
              "bounded tails — all held\n");
  return 0;
}
