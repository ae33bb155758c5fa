#include "delta/invert.h"

#include <functional>
#include <string>
#include <vector>

#include "core/buld.h"
#include "delta/apply.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace xydiff {
namespace {

TEST(InvertTest, SwapsOperationKinds) {
  Delta delta;
  auto del_tree = XmlNode::Element("d");
  del_tree->set_xid(1);
  delta.deletes().emplace_back(1, 10, 2, std::move(del_tree));
  auto ins_tree = XmlNode::Element("i");
  ins_tree->set_xid(5);
  delta.inserts().emplace_back(5, 11, 3, std::move(ins_tree));
  delta.moves().push_back(MoveOp{7, 1, 2, 3, 4});
  delta.updates().push_back(UpdateOp{8, "old", "new"});
  delta.attribute_ops().push_back({AttributeOpKind::kInsert, 9, "a", "", "v"});
  delta.attribute_ops().push_back({AttributeOpKind::kDelete, 9, "b", "w", ""});
  delta.attribute_ops().push_back(
      {AttributeOpKind::kUpdate, 9, "c", "1", "2"});
  delta.set_old_next_xid(100);
  delta.set_new_next_xid(200);

  Delta inv = InvertDelta(delta);
  ASSERT_EQ(inv.deletes().size(), 1u);
  ASSERT_EQ(inv.inserts().size(), 1u);
  EXPECT_EQ(inv.deletes()[0].xid, 5u);   // Was the insert.
  EXPECT_EQ(inv.inserts()[0].xid, 1u);   // Was the delete.
  EXPECT_EQ(inv.inserts()[0].parent_xid, 10u);
  EXPECT_EQ(inv.inserts()[0].pos, 2u);

  ASSERT_EQ(inv.moves().size(), 1u);
  EXPECT_EQ(inv.moves()[0], (MoveOp{7, 3, 4, 1, 2}));

  ASSERT_EQ(inv.updates().size(), 1u);
  EXPECT_EQ(inv.updates()[0].old_value, "new");
  EXPECT_EQ(inv.updates()[0].new_value, "old");

  ASSERT_EQ(inv.attribute_ops().size(), 3u);
  EXPECT_EQ(inv.attribute_ops()[0].kind, AttributeOpKind::kDelete);
  EXPECT_EQ(inv.attribute_ops()[0].old_value, "v");
  EXPECT_EQ(inv.attribute_ops()[1].kind, AttributeOpKind::kInsert);
  EXPECT_EQ(inv.attribute_ops()[1].new_value, "w");
  EXPECT_EQ(inv.attribute_ops()[2].kind, AttributeOpKind::kUpdate);
  EXPECT_EQ(inv.attribute_ops()[2].old_value, "2");

  EXPECT_EQ(inv.old_next_xid(), 200u);
  EXPECT_EQ(inv.new_next_xid(), 100u);
}

TEST(InvertTest, DoubleInversionIsIdentity) {
  XmlDocument a = MustParse(
      "<r><x>one</x><y k=\"1\">two</y><z/><w>mover</w></r>");
  a.AssignInitialXids();
  XmlDocument b = MustParse(
      "<r><y k=\"2\">two!</y><x>one</x><q><w>mover</w></q></r>");
  Result<Delta> delta = XyDiff(&a, &b);
  ASSERT_TRUE(delta.ok());

  const Delta inv2 = InvertDelta(InvertDelta(*delta));
  // Same operation multiset — compare via serialized application.
  XmlDocument p1 = a.Clone();
  XmlDocument p2 = a.Clone();
  XY_ASSERT_OK(ApplyDelta(*delta, &p1));
  XY_ASSERT_OK(ApplyDelta(inv2, &p2));
  EXPECT_TRUE(DocsEqualWithXids(p1, p2));
  EXPECT_EQ(inv2.operation_count(), delta->operation_count());
}

/// Node number `n` of `root`'s subtree in document order.
XmlNode* NthNode(XmlNode* root, size_t n) {
  XmlNode* found = nullptr;
  size_t i = 0;
  root->Visit([&](XmlNode* node) {
    if (i++ == n) found = node;
  });
  return found;
}

/// An edit of one node; false when it does not apply to the node.
using Edit = std::function<bool(XmlNode*)>;

/// Edits that put a document at the wrong version for `delta`: change a
/// text, strip an element's attributes, drop its first or last child,
/// renumber a node to a fresh XID or to one the delta deletes, or give
/// an attribute the delta touches a stray value.
std::vector<Edit> WrongVersionEdits(const Delta& delta) {
  std::vector<Edit> edits = {
      [](XmlNode* n) {
        if (!n->is_text()) return false;
        n->set_text(std::string(n->text()) + "!");
        return true;
      },
      [](XmlNode* n) {
        if (!n->is_element() || n->attributes().empty()) return false;
        std::vector<std::string> names;
        for (const XmlAttribute& attr : n->attributes()) {
          names.emplace_back(attr.name);
        }
        for (const std::string& name : names) n->RemoveAttribute(name);
        return true;
      },
      [](XmlNode* n) {
        if (!n->is_element() || n->child_count() == 0) return false;
        n->RemoveChild(0);
        return true;
      },
      [](XmlNode* n) {
        if (!n->is_element() || n->child_count() == 0) return false;
        n->RemoveChild(n->child_count() - 1);
        return true;
      },
      [](XmlNode* n) {
        n->set_xid(1000);
        return true;
      },
  };
  for (const DeleteOp& op : delta.deletes()) {
    edits.push_back([xid = op.xid](XmlNode* n) {
      n->set_xid(xid);
      return true;
    });
  }
  for (const AttributeOp& op : delta.attribute_ops()) {
    edits.push_back([name = op.name](XmlNode* n) {
      if (!n->is_element()) return false;
      n->SetAttribute(name, "stray");
      return true;
    });
  }
  return edits;
}

/// `doc`, `doc` with its XID allocator reset, and every variant of `doc`
/// that makes one of `edits` to one node.
std::vector<XmlDocument> WithOneEditVariants(const XmlDocument& doc,
                                             const std::vector<Edit>& edits) {
  std::vector<XmlDocument> out;
  out.push_back(doc.Clone());
  out.push_back(doc.Clone());
  out.back().set_next_xid(1);
  const size_t nodes = doc.root()->SubtreeSize();
  for (size_t n = 0; n < nodes; ++n) {
    for (const Edit& edit : edits) {
      XmlDocument variant = doc.Clone();
      if (edit(NthNode(variant.root(), n))) out.push_back(std::move(variant));
    }
  }
  return out;
}

/// ApplyDeltaInverse reads `delta` with its roles swapped; it must do
/// exactly what applying the materialized InvertDelta does, on every
/// document and with and without verification: the same Status and the
/// same (possibly partially modified) document, XIDs and next_xid
/// included. Returns the messages of the applications that failed.
std::vector<std::string> ExpectInverseMatchesInvertDelta(
    const Delta& delta, const XmlDocument& doc) {
  const Delta inverse = InvertDelta(delta);
  std::vector<std::string> failures;
  for (const XmlDocument& variant :
       WithOneEditVariants(doc, WrongVersionEdits(delta))) {
    for (bool verify : {true, false}) {
      ApplyOptions options;
      options.verify = verify;
      XmlDocument swapped = variant.Clone();
      XmlDocument materialized = variant.Clone();
      const Status s1 = ApplyDeltaInverse(delta, &swapped, options);
      const Status s2 = ApplyDelta(inverse, &materialized, options);
      EXPECT_EQ(s1.ToString(), s2.ToString())
          << "on " << SerializeDocument(variant);
      EXPECT_TRUE(DocsEqualWithXids(swapped, materialized));
      EXPECT_EQ(swapped.next_xid(), materialized.next_xid());
      if (!s1.ok()) failures.push_back(s1.ToString());
    }
  }
  return failures;
}

bool AnyContains(const std::vector<std::string>& messages,
                 const std::string& needle) {
  for (const std::string& message : messages) {
    if (message.find(needle) != std::string::npos) return true;
  }
  return false;
}

TEST(InvertTest, ApplyInverseRestoresOldVersion) {
  XmlDocument a = MustParse(
      "<shop><item>apple</item><item>pear</item><sale><item>plum</item>"
      "</sale></shop>");
  a.AssignInitialXids();
  XmlDocument b = MustParse(
      "<shop><sale><item>plum</item><item>apple</item></sale>"
      "<item>cherry</item></shop>");
  Result<Delta> delta = XyDiff(&a, &b);
  ASSERT_TRUE(delta.ok());

  XmlDocument forward = a.Clone();
  XY_ASSERT_OK(ApplyDelta(*delta, &forward));
  EXPECT_TRUE(DocsEqualWithXids(forward, b));

  XY_ASSERT_OK(ApplyDelta(InvertDelta(*delta), &forward));
  EXPECT_TRUE(DocsEqualWithXids(forward, a));

  // And ApplyDeltaInverse is the same thing.
  XmlDocument forward2 = a.Clone();
  XY_ASSERT_OK(ApplyDelta(*delta, &forward2));
  XY_ASSERT_OK(ApplyDeltaInverse(*delta, &forward2));
  EXPECT_TRUE(DocsEqualWithXids(forward2, a));

  // On the right version, on the wrong one (a), and on every one-edit
  // variant of both.
  EXPECT_FALSE(ExpectInverseMatchesInvertDelta(*delta, b).empty());
  EXPECT_FALSE(ExpectInverseMatchesInvertDelta(*delta, a).empty());
}

TEST(InvertTest, ApplyInverseMatchesInvertDeltaOnDiffedPairs) {
  const std::pair<const char*, const char*> pairs[] = {
      {"<r><x>one</x><y k=\"1\">two</y><z/><w>mover</w></r>",
       "<r><y k=\"2\">two!</y><x>one</x><q><w>mover</w></q></r>"},
      {"<r><p a=\"1\" b=\"2\">a long paragraph of text</p><s/></r>",
       "<r><s c=\"3\"/><p a=\"1\">a long paragraph of TEXT</p></r>"},
      {"<old><t>gone</t></old>", "<new><t>here</t></new>"},
  };
  for (bool compress : {false, true}) {
    DiffOptions options;
    options.compress_updates = compress;
    for (const auto& [from, to] : pairs) {
      XmlDocument a = MustParse(from);
      a.AssignInitialXids();
      XmlDocument b = MustParse(to);
      Result<Delta> delta = XyDiff(&a, &b, options);
      ASSERT_TRUE(delta.ok()) << delta.status().ToString();
      ExpectInverseMatchesInvertDelta(*delta, b);
      ExpectInverseMatchesInvertDelta(*delta, a);
    }
  }
}

TEST(InvertTest, ApplyInverseMatchesInvertDeltaOnEveryOperationKind) {
  // Postfix XIDs: z=1 x=2 a=3 b=4 t=5 c=6 g=7 d=8 r=9. The target is
  // <r><z/><a u="2" fresh="9">y</a><c>long TEXT here<b/></c><e><f/></e></r>.
  XmlDocument source = MustParse(
      "<r><z/><a u=\"1\" k=\"w\">x</a><b/><c>long text here</c>"
      "<d>gone</d></r>");
  source.AssignInitialXids();
  Delta delta;
  delta.updates().push_back(UpdateOp{2, "x", "y"});
  // Compressed: "long " and " here" are shared and not stored.
  delta.updates().push_back(UpdateOp{5, "text", "TEXT", 5, 5});
  delta.attribute_ops().push_back({AttributeOpKind::kInsert, 3, "fresh", "",
                                   "9"});
  delta.attribute_ops().push_back({AttributeOpKind::kDelete, 3, "k", "w",
                                   ""});
  delta.attribute_ops().push_back({AttributeOpKind::kUpdate, 3, "u", "1",
                                   "2"});
  delta.moves().push_back(MoveOp{4, 9, 3, 6, 2});
  XmlNodePtr d = XmlNode::Element("d");
  d->set_xid(8);
  XmlNodePtr gone = XmlNode::Text("gone");
  gone->set_xid(7);
  d->AppendChild(std::move(gone));
  delta.deletes().emplace_back(8, 9, 5, std::move(d));
  XmlNodePtr e = XmlNode::Element("e");
  e->set_xid(10);
  XmlNodePtr f = XmlNode::Element("f");
  f->set_xid(11);
  e->AppendChild(std::move(f));
  delta.inserts().emplace_back(10, 9, 4, std::move(e));
  delta.set_old_next_xid(10);
  delta.set_new_next_xid(12);

  XmlDocument target = source.Clone();
  XY_ASSERT_OK(ApplyDelta(delta, &target));
  XmlDocument restored = target.Clone();
  XY_ASSERT_OK(ApplyDeltaInverse(delta, &restored));
  EXPECT_TRUE(DocsEqualWithXids(restored, source));

  std::vector<std::string> failures =
      ExpectInverseMatchesInvertDelta(delta, target);
  const std::vector<std::string> at_source =
      ExpectInverseMatchesInvertDelta(delta, source);
  failures.insert(failures.end(), at_source.begin(), at_source.end());
  // Every verification check of the apply phases fired on some variant.
  for (const char* check :
       {"no node with XID", "update of XID", "compressed update of XID",
        "attribute insert:", "attribute delete:", "attribute update:",
        "does not match snapshot", "duplicate XID", "out of range"}) {
    EXPECT_TRUE(AnyContains(failures, check)) << check;
  }
}

TEST(InvertTest, EmptyDelta) {
  Delta empty;
  Delta inv = InvertDelta(empty);
  EXPECT_TRUE(inv.empty());
}

}  // namespace
}  // namespace xydiff
