// The paper's central correctness claim (§1, §5): the diff "is 'correct'
// in that it finds a set of changes that is sufficient to transform the
// old version into the new version ... it misses no changes". These
// property tests sweep randomized documents and randomized change mixes
// and check, for every seed:
//   * apply(diff(A,B), A) == B   (structure AND persistent identifiers)
//   * apply(invert(diff(A,B)), B) == A
//   * the simulator's perfect delta also transforms A into B
//   * the delta survives XML serialization round trips.

#include <tuple>

#include "core/buld.h"
#include "delta/apply.h"
#include "delta/delta_xml.h"
#include "delta/invert.h"
#include "gtest/gtest.h"
#include "simulator/change_simulator.h"
#include "simulator/doc_generator.h"
#include "tests/test_util.h"
#include "util/random.h"
#include "version/warehouse.h"

namespace xydiff {
namespace {

struct Scenario {
  uint64_t seed;
  size_t doc_bytes;
  double delete_p;
  double update_p;
  double insert_p;
  double move_p;
  bool with_ids;
  int section_depth = 3;   // Document shape: nesting depth...
  int max_fanout = 6;      // ...and breadth.
};

class RoundTripProperty : public ::testing::TestWithParam<Scenario> {};

TEST_P(RoundTripProperty, DiffApplyReconstructsNewVersion) {
  const Scenario& s = GetParam();
  Rng rng(s.seed);

  DocGenOptions gen;
  gen.target_bytes = s.doc_bytes;
  gen.with_id_attributes = s.with_ids;
  gen.section_depth = s.section_depth;
  gen.max_fanout = s.max_fanout;
  XmlDocument base = GenerateDocument(&rng, gen);
  base.AssignInitialXids();

  ChangeSimOptions sim;
  sim.delete_probability = s.delete_p;
  sim.update_probability = s.update_p;
  sim.insert_probability = s.insert_p;
  sim.move_probability = s.move_p;
  Result<SimulatedChange> change = SimulateChanges(base, sim, &rng);
  ASSERT_TRUE(change.ok()) << change.status().ToString();

  // The simulator's perfect delta must itself be valid.
  {
    XmlDocument check = base.Clone();
    XY_ASSERT_OK(ApplyDelta(change->perfect_delta, &check));
    ASSERT_TRUE(DocsEqualWithXids(check, change->new_version));
  }

  // Diff and apply.
  XmlDocument old_doc = base.Clone();
  XmlDocument new_doc = change->new_version.Clone();
  DiffStats stats;
  Result<Delta> delta = XyDiff(&old_doc, &new_doc, DiffOptions{}, &stats);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();

  {
    XmlDocument patched = base.Clone();
    XY_ASSERT_OK(ApplyDelta(*delta, &patched));
    EXPECT_TRUE(DocsEqualWithXids(patched, new_doc))
        << "seed=" << s.seed << " bytes=" << s.doc_bytes;
  }

  // Inverse application restores the old version.
  {
    XmlDocument reverted = new_doc.Clone();
    XY_ASSERT_OK(ApplyDeltaInverse(*delta, &reverted));
    EXPECT_TRUE(DocsEqualWithXids(reverted, old_doc));
  }

  // Delta XML round trip preserves semantics.
  {
    Result<Delta> reparsed = ParseDelta(SerializeDelta(*delta));
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
    XmlDocument patched = base.Clone();
    XY_ASSERT_OK(ApplyDelta(*reparsed, &patched));
    EXPECT_TRUE(DocsEqualWithXids(patched, new_doc));
  }
}

// Same property, but through the production ingest path: both versions
// are serialized to text and re-parsed into arena-backed documents (the
// parser's fast path), then diffed and patched in the arena domain. This
// pins the arena DOM to the exact semantics of the heap-built trees.
TEST_P(RoundTripProperty, ArenaParsedDocumentsDiffAndPatchIdentically) {
  const Scenario& s = GetParam();
  Rng rng(s.seed);

  DocGenOptions gen;
  gen.target_bytes = s.doc_bytes;
  gen.with_id_attributes = s.with_ids;
  gen.section_depth = s.section_depth;
  gen.max_fanout = s.max_fanout;
  XmlDocument base = GenerateDocument(&rng, gen);
  base.AssignInitialXids();

  ChangeSimOptions sim;
  sim.delete_probability = s.delete_p;
  sim.update_probability = s.update_p;
  sim.insert_probability = s.insert_p;
  sim.move_probability = s.move_p;
  Result<SimulatedChange> change = SimulateChanges(base, sim, &rng);
  ASSERT_TRUE(change.ok()) << change.status().ToString();

  const std::string old_xml = SerializeDocument(base);
  const std::string new_xml = SerializeDocument(change->new_version);

  // Serialize -> parse must be the identity on the serialized form.
  Result<XmlDocument> old_doc = ParseXml(old_xml);
  Result<XmlDocument> new_doc = ParseXml(new_xml);
  ASSERT_TRUE(old_doc.ok()) << old_doc.status().ToString();
  ASSERT_TRUE(new_doc.ok()) << new_doc.status().ToString();
  ASSERT_NE(old_doc->arena(), nullptr);  // Parser output is arena-backed.
  EXPECT_EQ(SerializeDocument(*old_doc), old_xml);
  EXPECT_EQ(SerializeDocument(*new_doc), new_xml);

  old_doc->AssignInitialXids();
  Result<Delta> delta = XyDiff(&old_doc.value(), &new_doc.value());
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();

  Result<XmlDocument> patched = ParseXml(old_xml);
  ASSERT_TRUE(patched.ok());
  patched->AssignInitialXids();
  XY_ASSERT_OK(ApplyDelta(*delta, &patched.value()));
  EXPECT_TRUE(DocsEqualWithXids(*patched, *new_doc))
      << "seed=" << s.seed << " bytes=" << s.doc_bytes;

  // And back again.
  XY_ASSERT_OK(ApplyDeltaInverse(*delta, &patched.value()));
  EXPECT_TRUE(DocsEqualWithXids(*patched, *old_doc));
}

// Same property a third time, now through the parallel warehouse
// pipeline: the raw serialized versions go through DiffBatch (parse →
// diff → store on the work-stealing pool), and the stored versions
// checked out afterwards must equal the originals. Whatever the
// scheduler does, apply(diff(v1,v2), v1) == v2 must survive the
// production batch path too.
TEST_P(RoundTripProperty, DiffBatchPipelineStoresExactVersions) {
  const Scenario& s = GetParam();
  Rng rng(s.seed);

  DocGenOptions gen;
  gen.target_bytes = s.doc_bytes;
  gen.with_id_attributes = s.with_ids;
  gen.section_depth = s.section_depth;
  gen.max_fanout = s.max_fanout;
  XmlDocument base = GenerateDocument(&rng, gen);
  base.AssignInitialXids();

  ChangeSimOptions sim;
  sim.delete_probability = s.delete_p;
  sim.update_probability = s.update_p;
  sim.insert_probability = s.insert_p;
  sim.move_probability = s.move_p;
  Result<SimulatedChange> change = SimulateChanges(base, sim, &rng);
  ASSERT_TRUE(change.ok()) << change.status().ToString();

  const std::string old_xml = SerializeDocument(base);
  const std::string new_xml = SerializeDocument(change->new_version);

  Warehouse warehouse;
  Warehouse::PipelineOptions pipeline;
  pipeline.threads = 4;
  auto v1_reports = warehouse.DiffBatch({{"doc", old_xml}}, pipeline);
  ASSERT_EQ(v1_reports.size(), 1u);
  ASSERT_TRUE(v1_reports[0].ok()) << v1_reports[0].status().ToString();
  EXPECT_TRUE(v1_reports[0]->first_version);

  auto v2_reports = warehouse.DiffBatch({{"doc", new_xml}}, pipeline);
  ASSERT_EQ(v2_reports.size(), 1u);
  ASSERT_TRUE(v2_reports[0].ok()) << v2_reports[0].status().ToString();
  EXPECT_EQ(v2_reports[0]->version, 2);

  // The stored version chain reconstructs both versions structurally
  // (XIDs are the warehouse's own assignment, so compare structure).
  Result<XmlDocument> checked_v2 = warehouse.Checkout("doc", 2);
  ASSERT_TRUE(checked_v2.ok()) << checked_v2.status().ToString();
  Result<XmlDocument> expected_v2 = ParseXml(new_xml);
  ASSERT_TRUE(expected_v2.ok());
  EXPECT_TRUE(DocsEqual(*checked_v2, *expected_v2))
      << "seed=" << s.seed << " bytes=" << s.doc_bytes;

  Result<XmlDocument> checked_v1 = warehouse.Checkout("doc", 1);
  ASSERT_TRUE(checked_v1.ok()) << checked_v1.status().ToString();
  Result<XmlDocument> expected_v1 = ParseXml(old_xml);
  ASSERT_TRUE(expected_v1.ok());
  EXPECT_TRUE(DocsEqual(*checked_v1, *expected_v1))
      << "seed=" << s.seed << " bytes=" << s.doc_bytes;
}

std::vector<Scenario> MakeScenarios() {
  std::vector<Scenario> scenarios;
  // Paper setting: 10% per operation, varied sizes and seeds.
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    for (size_t bytes : {512u, 4096u, 32768u}) {
      scenarios.push_back({seed, bytes, 0.1, 0.1, 0.1, 0.1, false});
    }
  }
  // Few changes (the common web case).
  for (uint64_t seed = 10; seed <= 13; ++seed) {
    scenarios.push_back({seed, 8192, 0.01, 0.03, 0.02, 0.005, false});
  }
  // Heavy churn.
  for (uint64_t seed = 20; seed <= 23; ++seed) {
    scenarios.push_back({seed, 8192, 0.3, 0.3, 0.3, 0.2, false});
  }
  // Move-dominated.
  for (uint64_t seed = 30; seed <= 33; ++seed) {
    scenarios.push_back({seed, 8192, 0.15, 0.0, 0.0, 0.5, false});
  }
  // With ID attributes (Phase 1 active).
  for (uint64_t seed = 40; seed <= 43; ++seed) {
    scenarios.push_back({seed, 8192, 0.1, 0.1, 0.1, 0.1, true});
  }
  // Deep documents (long ancestor chains stress bounded propagation).
  for (uint64_t seed = 50; seed <= 52; ++seed) {
    Scenario s{seed, 8192, 0.1, 0.1, 0.1, 0.1, false};
    s.section_depth = 7;
    s.max_fanout = 3;
    scenarios.push_back(s);
  }
  // Wide flat documents (huge sibling families stress the LOPS path).
  for (uint64_t seed = 60; seed <= 62; ++seed) {
    Scenario s{seed, 16384, 0.1, 0.1, 0.1, 0.3, false};
    s.section_depth = 1;
    s.max_fanout = 40;
    scenarios.push_back(s);
  }
  return scenarios;
}

INSTANTIATE_TEST_SUITE_P(Sweep, RoundTripProperty,
                         ::testing::ValuesIn(MakeScenarios()));

// Degenerate shapes exercised outside the simulator.
TEST(RoundTripEdgeCases, IdenticalDocuments) {
  Result<Delta> delta = XyDiffText("<a><b>x</b><c/></a>",
                                   "<a><b>x</b><c/></a>");
  ASSERT_TRUE(delta.ok());
  EXPECT_TRUE(delta->empty());
}

TEST(RoundTripEdgeCases, CompletelyDifferentDocuments) {
  XmlDocument a = MustParse("<alpha><x>1</x></alpha>");
  a.AssignInitialXids();
  XmlDocument b = MustParse("<beta><y>2</y></beta>");
  Result<Delta> delta = XyDiff(&a, &b);
  ASSERT_TRUE(delta.ok());
  XmlDocument patched = a.Clone();
  XY_ASSERT_OK(ApplyDelta(*delta, &patched));
  EXPECT_TRUE(DocsEqualWithXids(patched, b));
}

TEST(RoundTripEdgeCases, RootRelabelled) {
  XmlDocument a = MustParse("<old><keep>payload stays here</keep></old>");
  a.AssignInitialXids();
  XmlDocument b = MustParse("<new><keep>payload stays here</keep></new>");
  Result<Delta> delta = XyDiff(&a, &b);
  ASSERT_TRUE(delta.ok());
  XmlDocument patched = a.Clone();
  XY_ASSERT_OK(ApplyDelta(*delta, &patched));
  EXPECT_TRUE(DocsEqualWithXids(patched, b));
}

TEST(RoundTripEdgeCases, SingleNodeDocuments) {
  XmlDocument a = MustParse("<a/>");
  a.AssignInitialXids();
  XmlDocument b = MustParse("<b/>");
  Result<Delta> delta = XyDiff(&a, &b);
  ASSERT_TRUE(delta.ok());
  XmlDocument patched = a.Clone();
  XY_ASSERT_OK(ApplyDelta(*delta, &patched));
  EXPECT_TRUE(DocsEqualWithXids(patched, b));
}

}  // namespace
}  // namespace xydiff
