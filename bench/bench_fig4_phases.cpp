// Figure 4 — "Time cost for the different phases".
//
// The paper plots, log-log, the time spent in phases 1+2 (parse, hash,
// ID registration), phase 3 (BULD matching), phase 4 (optimization
// propagation) and phase 5 (delta construction) against the total size of
// both XML documents, for documents from ~1 KB to ~10 MB changed by the
// simulator at 10% per-node probability for every operation. The claimed
// shape: every phase grows ~linearly, and phases 3+4 — the algorithmic
// core — are the cheapest; data-structure manipulation dominates.
//
// Here phase 1+2 additionally includes XML parsing time, as in the paper
// ("in phase 1 and 2, we parse the file and hash its content").

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "core/buld.h"
#include "simulator/change_simulator.h"
#include "simulator/doc_generator.h"
#include "util/random.h"
#include "xml/parser.h"
#include "xml/serializer.h"

int main() {
  using namespace xydiff;
  using bench::Timer;

  bench::Banner("Figure 4: time cost of the diff phases vs document size",
                "ICDE 2002 paper, Figure 4 (log-log, near-linear phases)");

  // Every size is timed kReps times (parse + diff from the serialized
  // inputs each time); each column is the median, with the
  // interquartile range (q3 - q1) beside it.
  constexpr int kReps = 5;
  std::printf("median of %d runs per size; iqr = q3 - q1 of those runs\n",
              kReps);
  std::printf("%-11s %-8s %11s %7s %11s %7s %11s %7s %11s %7s %11s %7s\n",
              "total_bytes", "nodes", "phase1+2_us", "iqr", "phase3_us",
              "iqr", "phase4_us", "iqr", "phase5_us", "iqr", "total_us",
              "iqr");
  bench::Rule();

  Rng rng(42);
  ChangeSimOptions churn;  // Paper setting: 10% per node per operation.

  for (size_t target = 1 << 10; target <= (4u << 20); target *= 4) {
    DocGenOptions gen;
    gen.target_bytes = target;
    XmlDocument base = GenerateDocument(&rng, gen);
    base.AssignInitialXids();
    Result<SimulatedChange> change = SimulateChanges(base, churn, &rng);
    if (!change.ok()) {
      std::fprintf(stderr, "%s\n", change.status().ToString().c_str());
      return 1;
    }
    const std::string old_xml = SerializeDocument(base);
    const std::string new_xml = SerializeDocument(change->new_version);
    const size_t total_bytes = old_xml.size() + new_xml.size();

    // Microseconds per rep: phase 1+2 (with parsing), 3, 4, 5, total.
    std::vector<double> us[5];
    size_t nodes = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      Timer parse_timer;
      Result<XmlDocument> old_doc = ParseXml(old_xml);
      Result<XmlDocument> new_doc = ParseXml(new_xml);
      const double parse_s = parse_timer.Seconds();
      if (!old_doc.ok() || !new_doc.ok()) {
        std::fprintf(stderr, "parse error\n");
        return 1;
      }
      old_doc->AssignInitialXids();
      DiffStats stats{};
      Result<Delta> delta =
          XyDiff(&old_doc.value(), &new_doc.value(), DiffOptions{}, &stats);
      if (!delta.ok()) {
        std::fprintf(stderr, "%s\n", delta.status().ToString().c_str());
        return 1;
      }
      const double phases[4] = {
          parse_s + stats.phase1_seconds + stats.phase2_seconds,
          stats.phase3_seconds, stats.phase4_seconds, stats.phase5_seconds};
      for (int p = 0; p < 4; ++p) us[p].push_back(phases[p] * 1e6);
      us[4].push_back((phases[0] + phases[1] + phases[2] + phases[3]) * 1e6);
      nodes = stats.nodes_old + stats.nodes_new;
    }

    std::printf("%-11zu %-8zu", total_bytes, nodes);
    for (int p = 0; p < 5; ++p) {
      std::printf(" %11.0f %7.0f", bench::Percentile(us[p], 0.5),
                  bench::Percentile(us[p], 0.75) -
                      bench::Percentile(us[p], 0.25));
    }
    std::printf("\n");
  }

  std::printf(
      "\nExpected shape (paper): all phases near-linear in input size;\n"
      "phases 3+4 (matching) cheapest; parsing/hashing and delta\n"
      "construction (DOM manipulation) dominate.\n");
  return 0;
}
