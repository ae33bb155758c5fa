#include "delta/apply.h"

#include <string>
#include <vector>

#include "core/buld.h"
#include "delta/invert.h"
#include "gtest/gtest.h"
#include "simulator/change_simulator.h"
#include "simulator/doc_generator.h"
#include "util/random.h"
#include "tests/test_util.h"

namespace xydiff {
namespace {

/// Builds <r><a>x</a><b/></r> with postfix XIDs: x=1 a=2 b=3 r=4.
XmlDocument BaseDoc() {
  XmlDocument doc = MustParse("<r><a>x</a><b/></r>");
  doc.AssignInitialXids();
  return doc;
}

TEST(ApplyTest, UpdateChangesText) {
  XmlDocument doc = BaseDoc();
  Delta delta;
  delta.set_new_next_xid(5);
  delta.updates().push_back(UpdateOp{1, "x", "y"});
  XY_ASSERT_OK(ApplyDelta(delta, &doc));
  EXPECT_EQ(doc.root()->child(0)->child(0)->text(), "y");
}

TEST(ApplyTest, UpdateVerifiesOldValue) {
  XmlDocument doc = BaseDoc();
  Delta delta;
  delta.updates().push_back(UpdateOp{1, "WRONG", "y"});
  EXPECT_EQ(ApplyDelta(delta, &doc).code(), StatusCode::kConflict);
  // Without verification it goes through.
  XmlDocument doc2 = BaseDoc();
  ApplyOptions lax;
  lax.verify = false;
  XY_ASSERT_OK(ApplyDelta(delta, &doc2, lax));
  EXPECT_EQ(doc2.root()->child(0)->child(0)->text(), "y");
}

TEST(ApplyTest, UpdateTargetMustBeText) {
  XmlDocument doc = BaseDoc();
  Delta delta;
  delta.updates().push_back(UpdateOp{2, "x", "y"});  // <a> is an element.
  EXPECT_EQ(ApplyDelta(delta, &doc).code(), StatusCode::kConflict);
}

TEST(ApplyTest, UpdateUnknownXid) {
  XmlDocument doc = BaseDoc();
  Delta delta;
  delta.updates().push_back(UpdateOp{99, "x", "y"});
  EXPECT_EQ(ApplyDelta(delta, &doc).code(), StatusCode::kNotFound);
}

TEST(ApplyTest, InsertAtPosition) {
  XmlDocument doc = BaseDoc();
  Delta delta;
  auto subtree = XmlNode::Element("c");
  subtree->set_xid(5);
  delta.inserts().emplace_back(5, 4, 2, std::move(subtree));
  delta.set_new_next_xid(6);
  XY_ASSERT_OK(ApplyDelta(delta, &doc));
  ASSERT_EQ(doc.root()->child_count(), 3u);
  EXPECT_EQ(doc.root()->child(1)->label(), "c");
  EXPECT_EQ(doc.root()->child(1)->xid(), 5u);
  EXPECT_EQ(doc.next_xid(), 6u);
}

TEST(ApplyTest, DeleteRemovesSubtreeAndChecksSnapshot) {
  XmlDocument doc = BaseDoc();
  Delta delta;
  auto snapshot = XmlNode::Element("a");
  snapshot->set_xid(2);
  auto text = XmlNode::Text("x");
  text->set_xid(1);
  snapshot->AppendChild(std::move(text));
  delta.deletes().emplace_back(2, 4, 1, std::move(snapshot));
  XY_ASSERT_OK(ApplyDelta(delta, &doc));
  ASSERT_EQ(doc.root()->child_count(), 1u);
  EXPECT_EQ(doc.root()->child(0)->label(), "b");
}

TEST(ApplyTest, DeleteSnapshotMismatchFails) {
  XmlDocument doc = BaseDoc();
  Delta delta;
  auto snapshot = XmlNode::Element("a");
  snapshot->set_xid(2);
  auto text = XmlNode::Text("DIFFERENT");
  text->set_xid(1);
  snapshot->AppendChild(std::move(text));
  delta.deletes().emplace_back(2, 4, 1, std::move(snapshot));
  EXPECT_EQ(ApplyDelta(delta, &doc).code(), StatusCode::kConflict);
}

TEST(ApplyTest, DeleteXidMapMismatchFails) {
  XmlDocument doc = BaseDoc();
  Delta delta;
  auto snapshot = XmlNode::Element("a");
  snapshot->set_xid(2);
  auto text = XmlNode::Text("x");
  text->set_xid(77);  // Structure equal, XIDs differ.
  snapshot->AppendChild(std::move(text));
  delta.deletes().emplace_back(2, 4, 1, std::move(snapshot));
  EXPECT_EQ(ApplyDelta(delta, &doc).code(), StatusCode::kConflict);
}

TEST(ApplyTest, MoveBetweenParents) {
  // Move <a> (xid 2) under <b> (xid 3).
  XmlDocument doc = BaseDoc();
  Delta delta;
  delta.moves().push_back(MoveOp{2, 4, 1, 3, 1});
  XY_ASSERT_OK(ApplyDelta(delta, &doc));
  ASSERT_EQ(doc.root()->child_count(), 1u);
  EXPECT_EQ(doc.root()->child(0)->label(), "b");
  ASSERT_EQ(doc.root()->child(0)->child_count(), 1u);
  EXPECT_EQ(doc.root()->child(0)->child(0)->label(), "a");
  EXPECT_EQ(doc.root()->child(0)->child(0)->xid(), 2u);
}

TEST(ApplyTest, MoveWithinParentReorders) {
  XmlDocument doc = BaseDoc();
  Delta delta;
  delta.moves().push_back(MoveOp{2, 4, 1, 4, 2});  // a to position 2.
  XY_ASSERT_OK(ApplyDelta(delta, &doc));
  EXPECT_EQ(doc.root()->child(0)->label(), "b");
  EXPECT_EQ(doc.root()->child(1)->label(), "a");
}

TEST(ApplyTest, RootReplacement) {
  XmlDocument doc = BaseDoc();
  Delta delta;
  auto old_root = doc.root()->Clone();
  delta.deletes().emplace_back(4, kNoXid, 1, std::move(old_root));
  auto new_root = XmlNode::Element("fresh");
  new_root->set_xid(10);
  delta.inserts().emplace_back(10, kNoXid, 1, std::move(new_root));
  delta.set_new_next_xid(11);
  XY_ASSERT_OK(ApplyDelta(delta, &doc));
  EXPECT_EQ(doc.root()->label(), "fresh");
}

TEST(ApplyTest, DeltaRemovingRootWithoutReplacementFails) {
  XmlDocument doc = BaseDoc();
  Delta delta;
  delta.deletes().emplace_back(4, kNoXid, 1, doc.root()->Clone());
  EXPECT_EQ(ApplyDelta(delta, &doc).code(), StatusCode::kCorruption);
}

TEST(ApplyTest, MoveIntoInsertedSubtree) {
  XmlDocument doc = BaseDoc();
  Delta delta;
  auto wrapper = XmlNode::Element("wrap");
  wrapper->set_xid(9);
  // Final children of <r>: [b, wrap] — <a> moves away, so wrap's target
  // position is 2.
  delta.inserts().emplace_back(9, 4, 2, std::move(wrapper));
  delta.moves().push_back(MoveOp{2, 4, 1, 9, 1});
  delta.set_new_next_xid(10);
  XY_ASSERT_OK(ApplyDelta(delta, &doc));
  // r now has b, wrap; wrap contains a.
  ASSERT_EQ(doc.root()->child_count(), 2u);
  EXPECT_EQ(doc.root()->child(1)->label(), "wrap");
  ASSERT_EQ(doc.root()->child(1)->child_count(), 1u);
  EXPECT_EQ(doc.root()->child(1)->child(0)->label(), "a");
}

TEST(ApplyTest, DeleteInsideMovedSubtree) {
  // Move <a> under <b> while deleting a's text child.
  XmlDocument doc = BaseDoc();
  Delta delta;
  auto snapshot = XmlNode::Text("x");
  snapshot->set_xid(1);
  delta.deletes().emplace_back(1, 2, 1, std::move(snapshot));
  delta.moves().push_back(MoveOp{2, 4, 1, 3, 1});
  XY_ASSERT_OK(ApplyDelta(delta, &doc));
  const XmlNode* a = doc.root()->child(0)->child(0);
  EXPECT_EQ(a->label(), "a");
  EXPECT_EQ(a->child_count(), 0u);
}

TEST(ApplyTest, AttributeOps) {
  XmlDocument doc = BaseDoc();
  doc.root()->child(0)->SetAttribute("keep", "1");
  doc.root()->child(0)->SetAttribute("drop", "2");
  doc.root()->child(0)->SetAttribute("change", "3");
  Delta delta;
  delta.attribute_ops().push_back(
      {AttributeOpKind::kInsert, 2, "fresh", "", "9"});
  delta.attribute_ops().push_back(
      {AttributeOpKind::kDelete, 2, "drop", "2", ""});
  delta.attribute_ops().push_back(
      {AttributeOpKind::kUpdate, 2, "change", "3", "30"});
  XY_ASSERT_OK(ApplyDelta(delta, &doc));
  const XmlNode* a = doc.root()->child(0);
  EXPECT_EQ(*a->FindAttribute("fresh"), "9");
  EXPECT_EQ(a->FindAttribute("drop"), nullptr);
  EXPECT_EQ(*a->FindAttribute("change"), "30");
  EXPECT_EQ(*a->FindAttribute("keep"), "1");
}

TEST(ApplyTest, AttributeConflicts) {
  // Fresh document per case: a failed apply may leave partial changes.
  {
    XmlDocument doc = BaseDoc();
    doc.root()->child(0)->SetAttribute("k", "1");
    Delta delta;
    delta.attribute_ops().push_back(
        {AttributeOpKind::kInsert, 2, "k", "", "2"});  // Already present.
    EXPECT_EQ(ApplyDelta(delta, &doc).code(), StatusCode::kConflict);
    // The document was restored to a usable (rooted) state.
    ASSERT_NE(doc.root(), nullptr);
  }
  {
    XmlDocument doc = BaseDoc();
    doc.root()->child(0)->SetAttribute("k", "1");
    Delta delta;
    delta.attribute_ops().push_back(
        {AttributeOpKind::kDelete, 2, "k", "WRONG", ""});
    EXPECT_EQ(ApplyDelta(delta, &doc).code(), StatusCode::kConflict);
  }
  {
    XmlDocument doc = BaseDoc();
    Delta delta;
    delta.attribute_ops().push_back(
        {AttributeOpKind::kUpdate, 2, "absent", "1", "2"});
    EXPECT_EQ(ApplyDelta(delta, &doc).code(), StatusCode::kConflict);
  }
}

TEST(ApplyTest, InsertWithoutSnapshotFails) {
  XmlDocument doc = BaseDoc();
  Delta delta;
  delta.inserts().emplace_back(9, 4, 1, nullptr);
  EXPECT_EQ(ApplyDelta(delta, &doc).code(), StatusCode::kInvalidArgument);
}

TEST(ApplyTest, InsertDuplicateXidFails) {
  XmlDocument doc = BaseDoc();
  Delta delta;
  auto subtree = XmlNode::Element("dup");
  subtree->set_xid(2);  // Already taken by <a>.
  delta.inserts().emplace_back(2, 4, 3, std::move(subtree));
  EXPECT_EQ(ApplyDelta(delta, &doc).code(), StatusCode::kConflict);
}

TEST(ApplyTest, AttachPositionOutOfRangeFails) {
  XmlDocument doc = BaseDoc();
  Delta delta;
  auto subtree = XmlNode::Element("c");
  subtree->set_xid(9);
  delta.inserts().emplace_back(9, 4, 99, std::move(subtree));
  EXPECT_EQ(ApplyDelta(delta, &doc).code(), StatusCode::kConflict);
}

TEST(ApplyTest, MultipleInsertsAtSameParentAscendingPositions) {
  XmlDocument doc = BaseDoc();  // r(4) children: a(2), b(3).
  Delta delta;
  // Final children: [n1, a, n2, b, n3] -> positions 1, 3, 5.
  const auto make = [](const char* label, Xid xid) {
    auto node = XmlNode::Element(label);
    node->set_xid(xid);
    return node;
  };
  // Deliberately out of order in the op list (set semantics).
  delta.inserts().emplace_back(7, 4, 5, make("n3", 7));
  delta.inserts().emplace_back(5, 4, 1, make("n1", 5));
  delta.inserts().emplace_back(6, 4, 3, make("n2", 6));
  delta.set_new_next_xid(8);
  XY_ASSERT_OK(ApplyDelta(delta, &doc));
  ASSERT_EQ(doc.root()->child_count(), 5u);
  EXPECT_EQ(doc.root()->child(0)->label(), "n1");
  EXPECT_EQ(doc.root()->child(1)->label(), "a");
  EXPECT_EQ(doc.root()->child(2)->label(), "n2");
  EXPECT_EQ(doc.root()->child(3)->label(), "b");
  EXPECT_EQ(doc.root()->child(4)->label(), "n3");
}

TEST(ApplyTest, ChainedMoves) {
  // a moves under b; b moves under... b cannot move under a's subtree
  // (cycle), but b can move to position 1 while a moves inside it.
  XmlDocument doc = BaseDoc();
  Delta delta;
  delta.moves().push_back(MoveOp{2, 4, 1, 3, 1});  // a under b.
  delta.moves().push_back(MoveOp{3, 4, 2, 4, 1});  // b to front (is only child).
  XY_ASSERT_OK(ApplyDelta(delta, &doc));
  ASSERT_EQ(doc.root()->child_count(), 1u);
  EXPECT_EQ(doc.root()->child(0)->label(), "b");
  EXPECT_EQ(doc.root()->child(0)->child(0)->label(), "a");
}

TEST(ApplyTest, UpdateInsideMovedSubtree) {
  XmlDocument doc = BaseDoc();
  Delta delta;
  delta.updates().push_back(UpdateOp{1, "x", "renamed"});
  delta.moves().push_back(MoveOp{2, 4, 1, 3, 1});
  XY_ASSERT_OK(ApplyDelta(delta, &doc));
  EXPECT_EQ(doc.root()->child(0)->child(0)->child(0)->text(), "renamed");
}

TEST(ApplyTest, MoveDetachedTwiceFails) {
  XmlDocument doc = BaseDoc();
  Delta delta;
  delta.moves().push_back(MoveOp{2, 4, 1, 3, 1});
  delta.moves().push_back(MoveOp{2, 4, 1, 4, 2});
  EXPECT_EQ(ApplyDelta(delta, &doc).code(), StatusCode::kConflict);
}

TEST(ApplyTest, ClampPositionsOption) {
  XmlDocument doc = BaseDoc();
  Delta delta;
  auto subtree = XmlNode::Element("c");
  subtree->set_xid(9);
  delta.inserts().emplace_back(9, 4, 99, std::move(subtree));
  delta.set_new_next_xid(10);
  ApplyOptions clamping;
  clamping.clamp_positions = true;
  XY_ASSERT_OK(ApplyDelta(delta, &doc, clamping));
  EXPECT_EQ(doc.root()->child(2)->label(), "c");  // Clamped to the end.
}

TEST(ApplyTest, EmptyDeltaIsNoOp) {
  XmlDocument doc = BaseDoc();
  XmlDocument before = doc.Clone();
  Delta delta;
  delta.set_old_next_xid(doc.next_xid());
  delta.set_new_next_xid(doc.next_xid());
  XY_ASSERT_OK(ApplyDelta(delta, &doc));
  EXPECT_TRUE(DocsEqualWithXids(doc, before));
}

TEST(ApplyTest, EmptyDocumentRejected) {
  XmlDocument doc;
  Delta delta;
  EXPECT_EQ(ApplyDelta(delta, &doc).code(), StatusCode::kInvalidArgument);
}

// --- DeltaPathApplicator ----------------------------------------------------

/// One step of a path: a delta applied forwards or inverted.
struct Hop {
  const Delta* delta;
  bool inverse;
};

XmlNodePtr Leaf(const char* label, Xid xid) {
  XmlNodePtr node = XmlNode::Element(label);
  node->set_xid(xid);
  return node;
}

XmlNodePtr TextLeaf(const char* text, Xid xid) {
  XmlNodePtr node = XmlNode::Text(text);
  node->set_xid(xid);
  return node;
}

/// The same document built into its own arena (the parser's domain);
/// Clone() gives the heap domain the version store checks out into.
XmlDocument ArenaCopy(const XmlDocument& doc) {
  XmlDocument copy = XmlDocument::ArenaBacked();
  copy.set_root(doc.root()->Clone(copy.arena()));
  copy.set_next_xid(doc.next_xid());
  return copy;
}

/// Runs every prefix of `hops` through one DeltaPathApplicator, from a
/// heap and from an arena copy of `base`, and compares each against a
/// fresh ApplyDelta per hop with every inverse materialized by
/// InvertDelta: the same Status codes, and documents that serialize
/// byte-identically with XIDs and carry the same next_xid. The replay
/// verifies every hop, so a hand-built delta that does not fit its
/// document shows up as a code mismatch. Returns the codes of the full
/// path.
std::vector<StatusCode> ExpectPathMatchesReplay(const XmlDocument& base,
                                                const std::vector<Hop>& hops) {
  std::vector<StatusCode> codes;
  for (size_t k = 1; k <= hops.size(); ++k) {
    XmlDocument replay = base.Clone();
    codes.clear();
    for (size_t i = 0; i < k; ++i) {
      codes.push_back((hops[i].inverse
                           ? ApplyDelta(InvertDelta(*hops[i].delta), &replay)
                           : ApplyDelta(*hops[i].delta, &replay))
                          .code());
    }
    for (bool arena : {false, true}) {
      DeltaPathApplicator path(arena ? ArenaCopy(base) : base.Clone());
      for (size_t i = 0; i < k; ++i) {
        EXPECT_EQ(path.Push(*hops[i].delta, hops[i].inverse).code(),
                  codes[i])
            << "hop " << i << " of " << k << (arena ? " (arena)" : "");
      }
      EXPECT_EQ(path.applications(), k);
      const XmlDocument out = std::move(path).Finish();
      EXPECT_TRUE(DocsEqualWithXids(out, replay))
          << "after " << k << " hops" << (arena ? " (arena)" : "");
      EXPECT_EQ(out.next_xid(), replay.next_xid());
    }
  }
  return codes;
}

/// Forwards through every delta, then back through their inverses.
std::vector<Hop> ThereAndBack(const std::vector<const Delta*>& deltas) {
  std::vector<Hop> hops;
  for (const Delta* d : deltas) hops.push_back({d, false});
  for (size_t i = deltas.size(); i-- > 0;) hops.push_back({deltas[i], true});
  return hops;
}

bool AllOk(const std::vector<StatusCode>& codes) {
  for (StatusCode code : codes) {
    if (code != StatusCode::kOk) return false;
  }
  return true;
}

TEST(DeltaPathApplicatorTest, InsertedNodeIsMovedThenDeletedByLaterHops) {
  const XmlDocument base = BaseDoc();  // r(4): a(2)[x(1)], b(3).
  Delta insert;  // <c>t</c> becomes r's third child.
  XmlNodePtr c = Leaf("c", 5);
  c->AppendChild(TextLeaf("t", 6));
  insert.inserts().emplace_back(5, 4, 3, std::move(c));
  insert.set_old_next_xid(5);
  insert.set_new_next_xid(7);
  Delta move;  // c moves under b, and its text changes.
  move.moves().push_back(MoveOp{5, 4, 3, 3, 1});
  move.updates().push_back(UpdateOp{6, "t", "u"});
  move.set_old_next_xid(7);
  move.set_new_next_xid(7);
  Delta remove;  // c is deleted from under b.
  XmlNodePtr c_moved = Leaf("c", 5);
  c_moved->AppendChild(TextLeaf("u", 6));
  remove.deletes().emplace_back(5, 3, 1, std::move(c_moved));
  remove.set_old_next_xid(7);
  remove.set_new_next_xid(7);
  Delta reinsert;  // A new node takes c's old place.
  reinsert.inserts().emplace_back(7, 4, 3, Leaf("d", 7));
  reinsert.set_old_next_xid(7);
  reinsert.set_new_next_xid(8);

  const std::vector<StatusCode> codes = ExpectPathMatchesReplay(
      base, ThereAndBack({&insert, &move, &remove, &reinsert}));
  EXPECT_TRUE(AllOk(codes));
}

TEST(DeltaPathApplicatorTest, DescendantMovedOutBeforeAncestorDeleted) {
  const XmlDocument base = BaseDoc();
  Delta first;  // x leaves a for b; then a, now empty, is deleted.
  first.moves().push_back(MoveOp{1, 2, 1, 3, 1});
  first.deletes().emplace_back(2, 4, 1, Leaf("a", 2));
  Delta second;  // x, still indexed after its old parent died, changes
                 // and moves again, into a new node.
  second.updates().push_back(UpdateOp{1, "x", "y"});
  second.inserts().emplace_back(5, 4, 2, Leaf("n", 5));
  second.moves().push_back(MoveOp{1, 3, 1, 5, 1});
  second.set_old_next_xid(5);
  second.set_new_next_xid(6);

  const std::vector<StatusCode> codes =
      ExpectPathMatchesReplay(base, ThereAndBack({&first, &second}));
  EXPECT_TRUE(AllOk(codes));
}

TEST(DeltaPathApplicatorTest, RootReplacement) {
  const XmlDocument base = BaseDoc();
  Delta replace;
  replace.deletes().emplace_back(4, kNoXid, 1, base.root()->Clone());
  XmlNodePtr fresh = Leaf("fresh", 7);
  XmlNodePtr g = Leaf("g", 6);
  g->AppendChild(TextLeaf("t", 5));
  fresh->AppendChild(std::move(g));
  replace.inserts().emplace_back(7, kNoXid, 1, std::move(fresh));
  replace.set_old_next_xid(5);
  replace.set_new_next_xid(8);
  Delta edit_new;  // Addresses nodes only the replacement brought.
  edit_new.updates().push_back(UpdateOp{5, "t", "u"});
  edit_new.attribute_ops().push_back(
      {AttributeOpKind::kInsert, 7, "v", "", "1"});
  Delta edit_old;  // Addresses nodes the inverse replacement restored.
  edit_old.updates().push_back(UpdateOp{1, "x", "z"});
  edit_old.moves().push_back(MoveOp{2, 4, 1, 3, 1});

  const std::vector<StatusCode> codes = ExpectPathMatchesReplay(
      base, {{&replace, false},
             {&edit_new, false},
             {&edit_new, true},
             {&replace, true},
             {&edit_old, false},
             {&edit_old, true},
             {&replace, false}});
  EXPECT_TRUE(AllOk(codes));
}

TEST(DeltaPathApplicatorTest, InverseHopsOverADiffedChain) {
  std::vector<XmlDocument> versions;
  versions.push_back(MustParse(
      "<shop><item>apple</item><item>pear</item><sale><item>plum</item>"
      "</sale></shop>"));
  versions.push_back(MustParse(
      "<shop><sale><item>plum</item><item>apple</item></sale>"
      "<item>cherry</item></shop>"));
  versions.push_back(MustParse(
      "<shop k=\"1\"><sale><item>plum!</item></sale><item>cherry</item>"
      "<box><item>apple</item></box></shop>"));
  versions.push_back(MustParse("<catalog><item>new</item></catalog>"));
  versions[0].AssignInitialXids();
  std::vector<Delta> deltas;
  for (size_t i = 0; i + 1 < versions.size(); ++i) {
    Result<Delta> delta = XyDiff(&versions[i], &versions[i + 1]);
    ASSERT_TRUE(delta.ok()) << delta.status().ToString();
    deltas.push_back(std::move(delta.value()));
  }

  // Backward replay from the newest version, as the version store does.
  std::vector<Hop> back;
  for (size_t i = deltas.size(); i-- > 0;) back.push_back({&deltas[i], true});
  EXPECT_TRUE(AllOk(ExpectPathMatchesReplay(versions.back(), back)));
  DeltaPathApplicator path(versions.back().Clone());
  for (const Hop& hop : back) XY_ASSERT_OK(path.Push(*hop.delta, true));
  EXPECT_TRUE(DocsEqualWithXids(std::move(path).Finish(), versions[0]));

  // Forwards and back again from the oldest.
  EXPECT_TRUE(AllOk(ExpectPathMatchesReplay(
      versions[0], ThereAndBack({&deltas[0], &deltas[1], &deltas[2]}))));
}

TEST(DeltaPathApplicatorTest, LongPathOverSimulatedChanges) {
  // Enough nodes and churn that the index grows, shrinks and probes past
  // collisions along the path.
  Rng rng(2024);
  DocGenOptions gen;
  gen.target_bytes = 8192;
  XmlDocument base = GenerateDocument(&rng, gen);
  base.AssignInitialXids();
  XmlDocument current = base.Clone();
  std::vector<Delta> deltas;
  for (int v = 0; v < 8; ++v) {
    Result<SimulatedChange> change =
        SimulateChanges(current, ChangeSimOptions{}, &rng);
    ASSERT_TRUE(change.ok()) << change.status().ToString();
    deltas.push_back(std::move(change->perfect_delta));
    current = std::move(change->new_version);
  }
  std::vector<const Delta*> path;
  for (const Delta& delta : deltas) path.push_back(&delta);
  EXPECT_TRUE(AllOk(ExpectPathMatchesReplay(base, ThereAndBack(path))));
}

TEST(DeltaPathApplicatorTest, ScatteredXidsSurviveDeleteAndReinsert) {
  // XIDs drawn from all 64 bits share probe runs in the index, so
  // deleting subtrees and re-inserting them (the inverse hops) exercises
  // its erase: every hop looks up every node that is left.
  constexpr int kChildren = 48;
  Rng rng(7);
  const Xid root_xid = rng.Next() | 1;
  XmlDocument base(Leaf("r", root_xid));
  std::vector<Xid> elements;
  std::vector<Xid> texts;
  for (int i = 0; i < kChildren; ++i) {
    elements.push_back(rng.Next() | 1);
    texts.push_back(rng.Next() | 1);
    XmlNode* child = base.root()->AppendChild(Leaf("c", elements.back()));
    child->AppendChild(TextLeaf("0", texts.back()));
  }
  // Hop h deletes the first child left, whose text reads h by then, and
  // rewrites every other text left from h to h + 1.
  std::vector<Delta> deltas(kChildren);
  for (int h = 0; h < kChildren; ++h) {
    XmlNodePtr snapshot = Leaf("c", elements[h]);
    snapshot->AppendChild(TextLeaf(std::to_string(h).c_str(), texts[h]));
    deltas[h].deletes().emplace_back(elements[h], root_xid, 1,
                                     std::move(snapshot));
    for (int i = h + 1; i < kChildren; ++i) {
      deltas[h].updates().push_back(
          UpdateOp{texts[i], std::to_string(h), std::to_string(h + 1)});
    }
  }
  std::vector<const Delta*> path;
  for (const Delta& delta : deltas) path.push_back(&delta);
  EXPECT_TRUE(AllOk(ExpectPathMatchesReplay(base, ThereAndBack(path))));
}

TEST(DeltaPathApplicatorTest, FailedPushIsNotFollowedByStalePointers) {
  const XmlDocument base = BaseDoc();
  Delta failing;  // Detaches a (with x) for the move, then cannot find 99.
  failing.moves().push_back(MoveOp{2, 4, 1, 3, 1});
  failing.deletes().emplace_back(99, 4, 1, Leaf("gone", 99));
  Delta touch_dropped;  // x was dropped with the failed move.
  touch_dropped.updates().push_back(UpdateOp{1, "x", "y"});
  Delta touch_live;
  touch_live.attribute_ops().push_back(
      {AttributeOpKind::kInsert, 3, "k", "", "1"});

  const std::vector<StatusCode> codes = ExpectPathMatchesReplay(
      base, {{&failing, false}, {&touch_dropped, false}, {&touch_live, false}});
  EXPECT_EQ(codes, (std::vector<StatusCode>{StatusCode::kNotFound,
                                             StatusCode::kNotFound,
                                             StatusCode::kOk}));
}

}  // namespace
}  // namespace xydiff
